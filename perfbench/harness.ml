(* The closed loop every workload shares: one client, the next op only
   after the previous one returned.  A run makes a fixed number of ops,
   so counts and heap figures repeat exactly for a seed; its answers
   are checked outside the timed interval. *)

type cfg = { seed : int; seconds : int; trace : bool }

type verdict = Pass | Failed of string | Wrong of string

type metric = { name : string; value : float; unit_ : string }

(* Every per-layer metric, with its unit.  A traced run prints all of
   them; one a workload does not exercise reads 0. *)
let per_layer_catalog =
  [ ("pohlig_hellman.keygen_s", "s"); ("cluster.load_s", "s");
    ("planner.plan_ms", "ms"); ("query.parse_us", "us");
    ("sharding.audit_ms.local", "ms"); ("sharding.audit_ms.ranking", "ms");
    ("sharding.audit_ms.equality", "ms"); ("sharding.audit_ms.string_ne", "ms");
    ("sharding.audit_ms.count", "ms"); ("cluster.submit_ms_p50", "ms");
    ("continuous.hook_ms_p50", "ms"); ("modular.modexp_us", "us");
    ("modular.modexp_per_op", "count"); ("modular.kernel_ms_per_op", "ms");
    ("modular.mont_cache_miss_per_op", "count");
    ("domain_pool.jobs_per_op", "count"); ("domain_pool.inline_per_op", "count");
    ("commutative.ops_per_op", "count"); ("blinding.ops_per_op", "count");
    ("shamir.ops_per_op", "count"); ("executor.atoms_local_per_op", "count");
    ("executor.atoms_cross_per_op", "count");
    ("audit_session.cache_hits_per_op", "count");
    ("audit_session.dedup_clauses", "count");
    ("continuous.reblind_per_op", "count"); ("continuous.insert_per_op", "count");
    ("network.msgs_per_op", "count"); ("network.rounds_per_op", "count");
    ("sharding.fabric_msgs_per_op", "count"); ("ledger.entries_per_op", "count");
    ("trace.spans_retained", "count"); ("gc.minor_mb_per_op", "MB");
    ("gc.major_per_op", "count"); ("gc.live_mb_end", "MB");
    ("trace.overhead_ms", "ms"); ("wall.op_ms_p50", "ms"); ("cpu.op_ms_p50", "ms");
    ("host.probe_ms", "ms")
  ]

(* Set-up is repeated [reps] times and its median reported, so one slow
   moment of the host does not move it; the state of the last set-up is
   the one measured.  [build] returns its state and its own time, the
   sum of its timed steps. *)
let setup_median ~reps build =
  let rec go k acc =
    Gc.compact ();
    let state, s = build () in
    if k = 1 then (state, Measure.median (s :: acc)) else go (k - 1) (s :: acc)
  in
  go reps []

let warm_up ~workload = function
  | Pass -> ()
  | Failed why | Wrong why -> failwith (workload ^ ": warm-up op: " ^ why)

(* Microseconds (at the reference host speed) per element of one inline
   Modular.pow_many batch of 64 at modulus [m], median of 9: the
   single-core kernel cost the per-op modexp count multiplies into an
   estimate. *)
let modexp_us m =
  let rng = Numtheory.Prng.create ~seed:1 in
  let bases = List.init 64 (fun _ -> Numtheory.Prng.bignum_below rng m) in
  let e = Numtheory.Prng.bignum_below rng m in
  Numtheory.Domain_pool.(with_pool inline) (fun () ->
      let times =
        List.init 9 (fun _ ->
            snd (Measure.time (fun () -> ignore (Numtheory.Modular.pow_many bases e ~m))))
      in
      1e6 *. Measure.median times /. 64.0)

(* Ops a run makes: [rate] ops per second of planned run time, fixed per
   workload from its op latency at the parent commit, and never fewer
   than [floor] — the tail statistic needs at least eleven samples. *)
let ops_for ?(floor = 12) ~rate cfg =
  max floor (int_of_float (Float.round (rate *. float_of_int cfg.seconds)))

type loop = {
  attempted : int;
  failed : int;
  wrong : int;
  plain_ms : float list;  (** untraced op times, ms at the reference speed *)
  traced_ms : float list;  (** traced op times (traced runs only) *)
  wall_ms : float list;  (** wall-clock times of the untraced ops *)
  cpu_ms : float list;  (** CPU times of the untraced ops *)
  probe_ms : float list;  (** {!Measure.probe} around every op *)
  busy_s : float;  (** summed latency of the ops that did not fail *)
  before : Measure.snapshot;
  after : Measure.snapshot;
  peak_words : int;
}

(* Run [ops] ops.  In a traced run every other op records spans, so the
   untraced ops beside them give the tracing overhead.  A run that is
   far slower than planned stops early rather than overrun its time. *)
let run_ops cfg ~ops ~sources ~run ~check =
  Gc.compact ();
  let before = Measure.snapshot sources in
  let steal0, total0 = Measure.host_ticks () in
  let started = Measure.wall () in
  let limit = float_of_int ((3 * cfg.seconds) + 30) in
  let peak = ref (Measure.heap_words ()) in
  let plain = ref [] and traced = ref [] and wall = ref [] and cpu = ref [] and probes = ref [] in
  let failed = ref 0 and wrong = ref 0 and busy = ref 0.0 and attempted = ref 0 in
  let i = ref 0 in
  while !i < ops && Measure.wall () -. started < limit do
    let on = cfg.trace && !i mod 2 = 1 in
    let p0 = Measure.probe () in
    Spans.scale := Measure.probe_ref /. p0;
    Spans.enabled := on;
    Spans.current_op := !i;
    let w0 = Measure.wall () and t0 = Measure.cpu () in
    let r = try Ok (run ()) with e -> Error (Printexc.to_string e) in
    let raw = Measure.cpu () -. t0 and dw = Measure.wall () -. w0 in
    Spans.enabled := false;
    let p = (p0 +. Measure.probe ()) /. 2.0 in
    let dt = raw *. Measure.probe_ref /. p in
    incr attempted;
    let verdict =
      match r with Error e -> Failed e | Ok r -> check r
    in
    (match verdict with
    | Pass ->
      busy := !busy +. dt;
      probes := (1000.0 *. p) :: !probes;
      if on then traced := (1000.0 *. dt) :: !traced
      else begin
        plain := (1000.0 *. dt) :: !plain;
        wall := (1000.0 *. dw) :: !wall;
        cpu := (1000.0 *. raw) :: !cpu
      end
    | Failed why ->
      incr failed;
      Printf.printf "# op %d failed: %s\n" !i why
    | Wrong why ->
      incr failed;
      incr wrong;
      Printf.printf "# op %d wrong: %s\n" !i why);
    peak := max !peak (Measure.heap_words ());
    incr i
  done;
  let steal1, total1 = Measure.host_ticks () in
  let steal_pct =
    if total1 > total0 then
      100.0 *. float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)
    else 0.0
  in
  Printf.printf
    "# ops: CPU p50 %.3f ms, wall-clock p50 %.3f ms; probe p50 %.4f ms \
     (reference %.4f ms); host CPU stolen from this machine %.1f%%\n"
    (Measure.median !cpu) (Measure.median !wall) (Measure.median !probes)
    (1000.0 *. Measure.probe_ref) steal_pct;
  {
    attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    plain_ms = !plain;
    traced_ms = !traced;
    wall_ms = !wall;
    cpu_ms = !cpu;
    probe_ms = !probes;
    busy_s = !busy;
    before;
    after = Measure.snapshot sources;
    peak_words = !peak;
  }

let per_op l v = if l.attempted = 0 then 0.0 else float_of_int v /. float_of_int l.attempted

let end_to_end l ~setup_s =
  let completed = l.attempted - l.failed in
  [ { name = "setup_s"; value = setup_s; unit_ = "s" };
    { name = "op_ms_p50"; value = Measure.median l.plain_ms; unit_ = "ms" };
    { name = "op_ms_tail"; value = Measure.tail l.plain_ms; unit_ = "ms" };
    { name = "ops_per_s";
      value = (if l.busy_s > 0.0 then float_of_int completed /. l.busy_s else 0.0);
      unit_ = "1/s" };
    { name = "heap_peak_mb"; value = Measure.mb_of_words l.peak_words; unit_ = "MB" };
    { name = "wire_kb_per_op";
      value = per_op l (l.after.Measure.bytes - l.before.Measure.bytes) /. 1024.0;
      unit_ = "KB" }
  ]

(* The per-layer metrics read from the program's own counters and the
   GC; [specific] supplies the timed ones a workload measures itself. *)
let per_layer l ~modexp_us ~specific =
  let d name = per_op l (Measure.counter_delta ~before:l.before ~after:l.after name) in
  let b = l.before and a = l.after in
  let modexp = d "crypto.modexp" in
  let common =
    [ ("modular.modexp_us", modexp_us);
      ("modular.modexp_per_op", modexp);
      ("modular.kernel_ms_per_op", modexp *. modexp_us /. 1000.0);
      ("modular.mont_cache_miss_per_op", d "crypto.mont.cache_miss");
      ("domain_pool.jobs_per_op", d "pool.jobs");
      ("domain_pool.inline_per_op", d "pool.inline");
      ("commutative.ops_per_op", d "crypto.commutative.enc" +. d "crypto.commutative.dec");
      ("blinding.ops_per_op", d "crypto.blind.affine" +. d "crypto.blind.monotone");
      ("shamir.ops_per_op", d "crypto.shamir.eval" +. d "crypto.shamir.interpolate");
      ("executor.atoms_local_per_op", d "executor.atoms.local");
      ("executor.atoms_cross_per_op", d "executor.atoms.cross");
      ("audit_session.cache_hits_per_op", d "audit.cache_hit");
      ("audit_session.dedup_clauses", d "audit.dedup_clauses");
      ("continuous.reblind_per_op", d "audit.delta.reblind");
      ("continuous.insert_per_op", d "audit.delta.insert");
      ("network.msgs_per_op", per_op l (a.Measure.msgs - b.Measure.msgs));
      ("network.rounds_per_op", per_op l (a.Measure.rounds - b.Measure.rounds));
      ("sharding.fabric_msgs_per_op", per_op l (a.Measure.fabric_msgs - b.Measure.fabric_msgs));
      ("ledger.entries_per_op", per_op l (a.Measure.ledger - b.Measure.ledger));
      ("trace.spans_retained", float_of_int (List.length (Obs.Trace.spans ())));
      ( "gc.minor_mb_per_op",
        (a.Measure.minor_words -. b.Measure.minor_words)
        *. float_of_int (Sys.word_size / 8)
        /. 1048576.0 /. float_of_int (max 1 l.attempted) );
      ("gc.major_per_op", per_op l (a.Measure.major_collections - b.Measure.major_collections));
      ("gc.live_mb_end", Measure.live_mb ());
      ("wall.op_ms_p50", Measure.median l.wall_ms);
      ("cpu.op_ms_p50", Measure.median l.cpu_ms);
      ("host.probe_ms", Measure.median l.probe_ms);
      ( "trace.overhead_ms",
        if l.traced_ms = [] || l.plain_ms = [] then 0.0
        else Measure.median l.traced_ms -. Measure.median l.plain_ms )
    ]
  in
  let value name =
    match List.assoc_opt name specific with
    | Some v -> v
    | None -> Option.value ~default:0.0 (List.assoc_opt name common)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_catalog) then
        invalid_arg ("per-layer metric missing from the catalog: " ^ name))
    (specific @ common);
  List.map (fun (name, unit_) -> { name; value = value name; unit_ }) per_layer_catalog

(* What a workload hands back: its op loop, the median set-up time, the
   per-layer metrics of a traced run (empty otherwise) and whether the
   checks made once at the end of the run passed. *)
type outcome = {
  loop : loop;
  setup_s : float;
  per_layer_metrics : metric list;
  final_ok : bool;
}

(* Median of a span family, in the given unit scale. *)
let span_median name ~scale = scale *. Measure.median (Spans.durations name)

(* The result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else invalid_arg "non-finite metric"
  in
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)
