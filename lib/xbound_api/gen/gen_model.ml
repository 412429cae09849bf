(* Prints the facade's processor model as an OCaml module: [blob], the
   marshaled pair [Core.Analyze.build_standard ()], and its cache-key
   digests [cpu] and [pa], computed by the same digest functions the
   analyses use. The pair is marshaled in one call, so the power
   context's netlist stays physically the CPU's once unmarshaled. The
   build rule in ../dune runs it, so dune regenerates the module
   whenever the CPU, the power model or the digest recipe changes, and
   an elaboration failure fails the build. *)

let () =
  let ((cpu, pa) as model) = Core.Analyze.build_standard () in
  print_string "(* Generated by gen/gen_model.exe at build time. *)\n";
  Printf.printf "let cpu = %S\nlet pa = %S\nlet blob = %S\n"
    (Core.Analyze.cpu_digest cpu) (Core.Analyze.pa_digest pa)
    (Marshal.to_string model [])
