(* fleet_audit: one auditor sweeps a 4-shard fleet with the default
   XOR-pad cipher.  One op is one sweep of a fixed list of criteria, one
   of each class, so op latency has a single peak.  The read path with
   no modexp: parsing, planning, the executor, blinded comparisons,
   scatter-gather and the network and ledger accounting. *)

open Dla

let auditor = Net.Node_id.Auditor
let shards = 4
let population = 3000
(* One sweep takes 0.25-0.35 s of wall-clock time at the parent commit
   on a 2-core host. *)
let ops_per_second = 3.0
let setup_reps = 3

(* One criterion of each class; its name names the class.  The four
   audits go through Sharding.audit, the count through
   Sharding.secret_count_total. *)
let audits : Rows.criterion list =
  let open Rows in
  [ { name = "local"; text = {|protocl = "UDP" && C1 > 30|};
      holds = (fun r -> r.protocl = "UDP" && r.c1 > 30) };
    { name = "ranking"; text = {|C1 > C4|}; holds = (fun r -> r.c1 > r.c4) };
    { name = "equality"; text = {|C1 = C4|}; holds = (fun r -> r.c1 = r.c4) };
    { name = "string_ne"; text = {|tid != id && protocl = "TCP"|};
      holds = (fun r -> r.tid <> r.id && r.protocl = "TCP") }
  ]

let count_criterion : Rows.criterion =
  { Rows.name = "count"; text = {|C5 < 50|}; holds = (fun r -> r.Rows.c5 < 50) }

type state = {
  fleet : Sharding.t;
  expected : Glsn.t list list;  (** per audit, in [audits] order *)
  expected_count : int;
  load_s : float;
}

type answer = { audits_out : (Glsn.t list * int, string) result list; count_out : (int, string) result }

let sweep st =
  let audits_out =
    List.map
      (fun c ->
        match Spans.with_ "query.parse" (fun () -> Query.parse c.Rows.text) with
        | Error e -> Error e
        | Ok q -> (
          match
            Spans.with_ ("sharding.audit." ^ c.Rows.name) (fun () ->
                Sharding.audit st.fleet ~auditor (Auditor_engine.Criteria q))
          with
          | Ok a -> Ok (a.Sharding.merged.Auditor_engine.matching, a.Sharding.merged.Auditor_engine.count)
          | Error e -> Error (Audit_error.to_string e)))
      audits
  in
  let count_out =
    Spans.with_ "sharding.audit.count" (fun () ->
        Sharding.secret_count_total st.fleet ~auditor ~criteria:count_criterion.Rows.text)
  in
  { audits_out; count_out }

let check st a =
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) a.audits_out
    @ (match a.count_out with Error e -> [ e ] | Ok _ -> [])
  in
  if errors <> [] then Harness.Failed (String.concat "; " errors)
  else
    let bad =
      List.concat
        (List.map2
           (fun (c, want) out ->
             match out with
             | Ok (matching, count) when Rows.same_glsns matching want && count = List.length want -> []
             | _ -> [ c.Rows.name ])
           (List.combine audits st.expected) a.audits_out)
      @ (match a.count_out with Ok n when n = st.expected_count -> [] | _ -> [ "count" ])
    in
    if bad = [] then Harness.Pass else Harness.Wrong ("criteria " ^ String.concat "," bad)

let build ~seed () =
  let rows = Rows.generate ~seed population in
  let fleet, create_s =
    Measure.time (fun () -> Sharding.create ~seed ~shards Fragmentation.paper_partition)
  in
  let committed, submit_s =
    Measure.time_each
      (fun u ->
        let r = rows.(u) in
        match
          Sharding.submit fleet ~origin:(Net.Node_id.User (u + 1))
            ~attributes:(Rows.attributes r)
        with
        | Ok (_, g) -> (g, r)
        | Error e -> failwith ("fleet_audit: load: " ^ e))
      (List.init population Fun.id)
  in
  let st =
    {
      fleet;
      expected = List.map (fun c -> Rows.expected committed c.Rows.holds) audits;
      expected_count = List.length (List.filter count_criterion.Rows.holds (List.map snd committed));
      load_s = create_s +. submit_s;
    }
  in
  let warm, warm_s = Measure.time (fun () -> sweep st) in
  Harness.warm_up ~workload:"fleet_audit" (check st warm);
  (st, st.load_s +. warm_s)

let run (cfg : Harness.cfg) =
  let load = ref [] in
  let st, setup_s =
    Harness.setup_median ~reps:setup_reps (fun () ->
        let st, s = build ~seed:cfg.Harness.seed () in
        load := st.load_s :: !load;
        (st, s))
  in
  let ops = Harness.ops_for ~rate:ops_per_second cfg in
  let sources =
    {
      Measure.nets = List.map (fun s -> Cluster.net s.Sharding.cluster) (Sharding.shards st.fleet);
      fabric = Some (Sharding.fabric st.fleet);
    }
  in
  let l = Harness.run_ops cfg ~ops ~sources ~run:(fun () -> sweep st) ~check:(check st) in
  let per_layer =
    if not cfg.Harness.trace then []
    else
      Harness.per_layer l ~modexp_us:0.0
        ~specific:
          (("cluster.load_s", Measure.median !load)
          :: ("query.parse_us", Harness.span_median "query.parse" ~scale:1e6)
          :: List.map
               (fun name ->
                 ("sharding.audit_ms." ^ name, Harness.span_median ("sharding.audit." ^ name) ~scale:1000.0))
               (List.map (fun c -> c.Rows.name) audits @ [ "count" ]))
  in
  { Harness.loop = l; setup_s; per_layer_metrics = per_layer; final_ok = true }
