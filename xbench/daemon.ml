(* An `xbound serve` child process with its own socket and cache
   directory. Every daemon started here is stopped at exit, whatever
   path the benchmark leaves by. *)

type t = { pid : int; addr : Serve.Addr.t; dir : string }

let live : t list ref = ref []

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end

let () = at_exit (fun () -> List.iter stop !live)

let connect d =
  match Serve.Client.connect d.addr with
  | Ok c -> c
  | Error m -> failwith m

let healthy addr =
  match Serve.Client.connect addr with
  | Error _ -> false
  | Ok c ->
    let ok =
      match Serve.Client.rpc c Wire.Request.Health with
      | Ok (Wire.Response.Health { ok; _ }) -> ok
      | _ -> false
    in
    Serve.Client.close c;
    ok

(* [start ~xbound ~dir ~workers] — spawn the daemon over [dir]/cache and
   wait until it answers Health. The socket path is relative to the
   working directory, which keeps it under the unix-socket length
   limit however deep the checkout is. *)
let start ~xbound ~dir ~workers =
  Util.mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let log = Util.open_log (Filename.concat dir "daemon.log") in
  let args =
    [| xbound; "serve"; "--socket"; sock; "--cache-dir";
       Filename.concat dir "cache"; "--workers"; string_of_int workers |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process xbound args Unix.stdin log log)
  in
  let d = { pid; addr = Serve.Addr.Unix_sock sock; dir } in
  live := d :: !live;
  let deadline = Util.now () +. 60. in
  let rec wait () =
    if healthy d.addr then d
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        stop d;
        failwith "xbound serve did not come up within 60 s"
      | _ ->
        live := List.filter (fun x -> x != d) !live;
        failwith ("xbound serve exited early; see " ^ dir ^ "/daemon.log")
  in
  wait ()

let peak_rss_mb d = Util.vm_hwm_mb (string_of_int d.pid)

let rpc c req =
  match Serve.Client.rpc c req with
  | Ok r -> r
  | Error e -> failwith (Xbound.Error.to_string e)

let stats c =
  match rpc c (Wire.Request.Stats { fmt = Wire.Request.Stats_json }) with
  | Wire.Response.Stats { snapshot; _ } -> snapshot
  | _ -> failwith "Stats answered with another response kind"
