(* The command-line boundary: arguments the library would reject with
   Invalid_argument end in a message and exit status 2 instead. *)

(* The CLI built next to this test executable (a dependency in dune). *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/contention_cli.exe"

(* Exit status of the CLI on [args], or [None] if it was still running
   after [timeout] seconds (it is killed then). *)
let exit_status ?(timeout = 10.) args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) null null null in
  Unix.close null;
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | 0, _ ->
        Unix.sleepf 0.02;
        wait ()
    | _, Unix.WEXITED code -> Some code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Some (-1)
  in
  wait ()

let check_exit_2 args =
  let shown = String.concat " " args in
  match exit_status args with
  | Some 2 -> ()
  | Some code -> Alcotest.failf "%s: exit %d, expected 2" shown code
  | None -> Alcotest.failf "%s: still running after 10 s" shown

let bad_values = [ "nan"; "inf"; "-5"; "0" ]

let test_horizon () =
  List.iter
    (fun value ->
      check_exit_2 [ "simulate"; "--apps"; "2"; "--procs"; "2"; "--horizon=" ^ value ])
    bad_values;
  List.iter
    (fun cmd -> check_exit_2 [ cmd; "--apps"; "2"; "--procs"; "2"; "--horizon=nan" ])
    [ "experiment"; "sweep"; "report"; "export" ]

let test_audit_horizon () =
  List.iter
    (fun value -> check_exit_2 [ "serve"; "--port"; "0"; "--audit-horizon=" ^ value ])
    bad_values

(* The other serve settings the server refuses, each with its flag. *)
let test_serve_flags () =
  List.iter
    (fun (flag, values) ->
      List.iter
        (fun value -> check_exit_2 [ "serve"; "--port"; "0"; flag ^ "=" ^ value ])
        values)
    [
      ("--slo-latency-ms", bad_values);
      ("--audit-drift-lambda", bad_values);
      ("--slo-target", "1" :: bad_values);
      ("--audit-drift-delta", [ "nan"; "inf"; "-5" ]);
    ]

let suite =
  [
    Alcotest.test_case "--horizon must be finite and positive" `Quick test_horizon;
    Alcotest.test_case "--audit-horizon must be finite and positive" `Quick test_audit_horizon;
    Alcotest.test_case "serve flags must be in range" `Quick test_serve_flags;
  ]
