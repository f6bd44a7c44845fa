(* stream: one logging client commits records one at a time into a
   4-node cluster that carries standing criteria in
   Continuous.Incremental, with periodic checkpoints.  The write path —
   Cluster.submit plus the delta maintenance after each commit — and
   the long-running loop whose retained state grows the heap. *)

open Dla

let preload = 1000

(* A commit that cuts a checkpoint costs more than ten plain ones.  A
   checkpoint every 11 commits puts 21 of them among the 240 ops of a
   20 s run: the median op is a plain commit and the tail statistic (the
   eleventh-slowest op) a checkpoint commit from the middle of the run,
   each far from the boundary between the two kinds.  The interval is
   odd so that a traced run, which traces every other op, traces half
   of the checkpoint commits.  At the parent commit on a 2-core host a
   plain commit takes 20-40 ms of wall-clock time and a checkpoint
   commit 0.3-0.5 s, depending on the host's speed at the moment. *)
let checkpoint_interval = 11
let ops_per_second = 12.0

(* Set-up is well under a second, so it is repeated more often. *)
let setup_reps = 5

type standing = { criterion : Rows.criterion; delivery : Executor.delivery }

let standing_criteria =
  let open Rows in
  [ { criterion = { name = "local"; text = {|protocl = "UDP" && C1 > 30|};
                    holds = (fun r -> r.protocl = "UDP" && r.c1 > 30) };
      delivery = Executor.Glsns };
    { criterion = { name = "count-only"; text = {|C5 < 50|}; holds = (fun r -> r.c5 < 50) };
      delivery = Executor.Count_only };
    { criterion = { name = "cross-ranking"; text = {|C1 > C4|}; holds = (fun r -> r.c1 > r.c4) };
      delivery = Executor.Glsns };
    { criterion = { name = "cross-equality"; text = {|C2 = C3 && protocl = "TCP"|};
                    holds = (fun r -> r.c2 = r.c3 && r.protocl = "TCP") };
      delivery = Executor.Glsns }
  ]

type state = {
  cluster : Cluster.t;
  ticket : Ticket.t;
  engine : Continuous.Incremental.t;
  ids : (standing * Continuous.Registry.id) list;
  rows : Rows.row array;
  mutable committed : (Glsn.t * Rows.row) list;
  mutable next_row : int;
  placed_at : float ref;  (** set by the hook that fires before the engine's *)
  hooked_at : float ref;  (** set by the hook that fires after it *)
  load_s : float;
}

let commit st =
  let r = st.rows.(st.next_row) in
  st.next_row <- st.next_row + 1;
  (r, Cluster.submit st.cluster ~ticket:st.ticket ~origin:(Net.Node_id.User 1)
        ~attributes:(Rows.attributes r))

(* Every standing verdict against its predicate over the rows committed
   so far. *)
let check st (r, outcome) =
  match Cluster.to_result outcome with
  | Error e -> Harness.Failed e
  | Ok g ->
    st.committed <- (g, r) :: st.committed;
    let bad =
      List.filter_map
        (fun (s, id) ->
          let want = Rows.expected st.committed s.criterion.Rows.holds in
          let ok =
            match Continuous.Incremental.verdict st.engine id with
            | None -> false
            | Some v -> (
              v.Continuous.Incremental.count = List.length want
              &&
              match s.delivery with
              | Executor.Count_only -> v.Continuous.Incremental.matching = []
              | Executor.Glsns -> Rows.same_glsns v.Continuous.Incremental.matching want)
          in
          if ok then None else Some s.criterion.Rows.name)
        st.ids
    in
    if bad = [] then Harness.Pass else Harness.Wrong ("verdicts " ^ String.concat "," bad)

let build ~seed ~ops () =
  let rows = Rows.generate ~seed (preload + 1 + ops) in
  let cluster, ticket, committed, load_s =
    Rows.load_cluster ~seed (List.init preload (Array.get rows))
  in
  (* Hooks fire in registration order: one before the engine's and one
     after it split a commit into placement and delta maintenance. *)
  let placed_at = ref 0.0 and hooked_at = ref 0.0 in
  Cluster.on_commit cluster (fun _ -> if !Spans.enabled then placed_at := Measure.cpu ());
  let (engine, ids), register_s =
    Measure.time (fun () ->
        let engine =
          Continuous.Incremental.create ~checkpoint_interval
            (Continuous.Registry.create cluster)
        in
        Cluster.on_commit cluster (fun _ ->
            if !Spans.enabled then hooked_at := Measure.cpu ());
        ( engine,
          List.map
            (fun s ->
              match
                Continuous.Incremental.register engine ~delivery:s.delivery
                  (Auditor_engine.Text s.criterion.Rows.text)
              with
              | Ok id -> (s, id)
              | Error e -> failwith ("stream: register: " ^ Audit_error.to_string e))
            standing_criteria ))
  in
  let st =
    { cluster; ticket; engine; ids; rows; committed = List.rev committed; next_row = preload;
      placed_at; hooked_at; load_s }
  in
  let warm, warm_s = Measure.time (fun () -> commit st) in
  Harness.warm_up ~workload:"stream" (check st warm);
  (st, load_s +. register_s +. warm_s)

(* The chain cut along the stream verifies against its published head,
   and a copy with one checkpoint altered is rejected. *)
let chain_ok ~seed st =
  let chain = Continuous.Incremental.chain st.engine in
  let cps = Continuous.Checkpoint.checkpoints chain in
  match (Continuous.Checkpoint.head chain, cps) with
  | None, _ | _, [] -> false
  | Some head, _ ->
    let k = seed mod List.length cps in
    let altered =
      List.mapi
        (fun i (c : Continuous.Checkpoint.checkpoint) ->
          if i = k then { c with Continuous.Checkpoint.commits = c.Continuous.Checkpoint.commits + 1 }
          else c)
        cps
    in
    let honest = Continuous.Checkpoint.verify_chain ~head cps = Ok () in
    let caught = Result.is_error (Continuous.Checkpoint.verify_chain ~head altered) in
    if not honest then print_endline "# stream: honest checkpoint chain rejected";
    if not caught then print_endline "# stream: altered checkpoint chain accepted";
    honest && caught

let run (cfg : Harness.cfg) =
  let ops = Harness.ops_for ~floor:(2 * checkpoint_interval) ~rate:ops_per_second cfg in
  let load = ref [] in
  let st, setup_s =
    Harness.setup_median ~reps:setup_reps (fun () ->
        let st, s = build ~seed:cfg.Harness.seed ~ops () in
        load := st.load_s :: !load;
        (st, s))
  in
  let sources = { Measure.nets = [ Cluster.net st.cluster ]; fabric = None } in
  let l =
    Harness.run_ops cfg ~ops ~sources
      ~run:(fun () ->
        let t0 = Measure.cpu () in
        let r = commit st in
        if !Spans.enabled then begin
          Spans.record ~name:"cluster.submit.place" ~start:t0 ~stop:!(st.placed_at);
          Spans.record ~name:"continuous.hook" ~start:!(st.placed_at) ~stop:!(st.hooked_at)
        end;
        r)
      ~check:(check st)
  in
  let final_ok = chain_ok ~seed:cfg.Harness.seed st in
  let per_layer =
    if not cfg.Harness.trace then []
    else
      Harness.per_layer l
        ~modexp_us:(Harness.modexp_us (Cluster.accumulator_params st.cluster).Crypto.Accumulator.n)
        ~specific:
          [ ("cluster.load_s", Measure.median !load);
            ("cluster.submit_ms_p50", Harness.span_median "cluster.submit.place" ~scale:1000.0);
            ("continuous.hook_ms_p50", Harness.span_median "continuous.hook" ~scale:1000.0)
          ]
  in
  { Harness.loop = l; setup_s; per_layer_metrics = per_layer; final_ok }
