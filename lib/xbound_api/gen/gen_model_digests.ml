(* Prints the cache-key digests of the facade's processor model as an
   OCaml module: [cpu] and [pa], computed by the same
   [Core.Analyze.build_standard] and digest functions the analyses use.
   The build rule in ../dune runs it, so dune regenerates the module
   whenever the CPU, the power model or the digest recipe changes. *)

let () =
  let cpu, pa = Core.Analyze.build_standard () in
  print_string
    "(* Generated by gen/gen_model_digests.exe at build time. *)\n";
  Printf.printf "let cpu = %S\nlet pa = %S\n" (Core.Analyze.cpu_digest cpu)
    (Core.Analyze.pa_digest pa)
