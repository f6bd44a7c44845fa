(* perfbench — the audit system's benchmark (README.md in this
   directory).

     perfbench --workload session_ph|fleet_audit|stream --seed N
               --seconds S --trace 0|1 [--commit SHA]

   Prints a header, then, as the last line, one JSON object with the
   ops attempted and failed and the end-to-end metrics (--trace 0) or
   the per-layer metrics (--trace 1). *)

let workloads =
  [ ("session_ph", Session_ph.run); ("fleet_audit", Fleet_audit.run);
    ("stream", Stream.run) ]

let pool_width = function "session_ph" -> Session_ph.pool_width | _ -> 1

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0
  and trace = ref (-1) and commit = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload, " session_ph | fleet_audit | stream");
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, " planned run length (1..60)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--commit", Arg.Set_string commit, " source revision, for the header")
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  if !seed < 0 || !seconds < 1 || !seconds > 60 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let cfg = { Harness.seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d cores=%d ocaml=%s \
     commit=%s pool_width=%d\n%!"
    !workload !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit (pool_width !workload);
  let o = run cfg in
  let l = o.Harness.loop in
  let n = List.length l.Harness.plain_ms in
  Printf.printf "# ops attempted=%d failed=%d wrong=%d; tail = p%.1f of %d untraced ops\n"
    l.Harness.attempted l.Harness.failed l.Harness.wrong (Measure.tail_percentile n) n;
  if cfg.Harness.trace then Spans.print_summary ();
  let metrics =
    if cfg.Harness.trace then o.Harness.per_layer_metrics
    else Harness.end_to_end l ~setup_s:o.Harness.setup_s
  in
  List.iter
    (fun m -> Printf.printf "# %-34s %16.6f %s\n" m.Harness.name m.Harness.value m.Harness.unit_)
    metrics;
  Harness.print_result
    ~correct:(l.Harness.wrong = 0 && o.Harness.final_ok)
    ~attempted:l.Harness.attempted ~failed:l.Harness.failed metrics
