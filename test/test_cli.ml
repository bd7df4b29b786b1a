(* The CLI's range-checked flags: an out-of-range value is a usage error
   (cmdliner's exit 124), never an uncaught exception (exit 125) or a
   run on nonsense input. *)

let cli = "../bin/switchboard_cli.exe"

let exit_code args =
  Sys.command (Filename.quote_command cli ~stdout:Filename.null ~stderr:Filename.null args)

let rejected args =
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      Alcotest.(check int) "usage error" 124 (exit_code args))

let accepted args =
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      Alcotest.(check int) "runs" 0 (exit_code args))

let () =
  Alcotest.run "sb_cli"
    [
      ( "rejected",
        List.map rejected
          [
            [ "route"; "--coverage"; "0" ];
            [ "route"; "--coverage"; "1.5" ];
            [ "route"; "--coverage"; "-0.5" ];
            [ "route"; "--coverage"; "nan" ];
            [ "route"; "--chains"; "0" ];
            [ "route"; "--chains"; "-3" ];
            [ "route"; "--cores"; "2" ];
            [ "compare"; "--chains"; "0" ];
            [ "plan-cloud"; "--cores"; "0" ];
            [ "plan-vnf"; "--new-sites"; "0" ];
            [ "adapt"; "--epochs"; "0" ];
            [ "adapt"; "--budget"; "-1" ];
            [ "chaos"; "--lanes"; "0" ];
            [ "chaos"; "--search"; "--budget"; "0" ];
            [ "scenarios"; "--smoke"; "--ticks"; "0" ];
            [ "scenarios"; "--smoke"; "--window"; "0" ];
            [ "scenarios"; "--smoke"; "--pkts"; "0" ];
            [ "scenarios"; "--smoke"; "--lanes"; "0" ];
            [ "scenarios"; "--smoke"; "--chains"; "0" ];
            [ "anycast"; "--smoke"; "--chains"; "0" ];
            [ "anycast"; "--smoke"; "--ticks"; "0" ];
            [ "anycast"; "--smoke"; "--lanes"; "0" ];
          ] );
      ( "accepted",
        List.map accepted
          [
            [ "route"; "--coverage"; "1"; "--chains"; "1" ];
            [ "route"; "--cores"; "3"; "--chains"; "4"; "--coverage"; "0.25" ];
          ] );
    ]
