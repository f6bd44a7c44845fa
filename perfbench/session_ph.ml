(* session_ph: one auditor re-runs the same batched Audit_session over a
   4-node paper-partition cluster with the Pohlig–Hellman-256
   commutative cipher, under a two-domain pool.  The read path where
   modexp is nearly all the time. *)

open Numtheory
open Dla

let auditor = Net.Node_id.Auditor
let pool_width = 2
let population = 120

(* One session takes 0.4-0.7 s of wall-clock time at the parent commit
   on a 2-core host, so a 20 s run makes 45 of them: enough for a tail
   with ten samples beyond it. *)
let ops_per_second = 2.25

(* Set-up is a few seconds, most of it the prime search. *)
let setup_reps = 3

(* The cipher parameters come from a fixed seed, so set-up does the same
   prime search at every seed; the rows come from the workload seed. *)
let key_seed = 71

(* Eight criteria modelled on the reactor ladder's batch: four
   cross-node comparisons over two disjoint node pairs, every
   single-column clause shared by at least two criteria. *)
let batch : Rows.criterion list =
  let open Rows in
  [ { name = "c1-c4"; text = {|C1 > 30 && C4 < 50|}; holds = (fun r -> r.c1 > 30 && r.c4 < 50) };
    { name = "c5-c6"; text = {|C5 < 50 && C6 < 50|}; holds = (fun r -> r.c5 < 50 && r.c6 < 50) };
    { name = "c2=c3"; text = {|C1 > 30 && C5 < 50 && C2 = C3|};
      holds = (fun r -> r.c1 > 30 && r.c5 < 50 && r.c2 = r.c3) };
    { name = "c1>c4"; text = {|C4 < 50 && C1 > C4|}; holds = (fun r -> r.c4 < 50 && r.c1 > r.c4) };
    { name = "tid!=id"; text = {|C6 < 50 && tid != id|}; holds = (fun r -> r.c6 < 50 && r.tid <> r.id) };
    { name = "c1=c4"; text = {|C1 > 30 && C1 = C4|}; holds = (fun r -> r.c1 > 30 && r.c1 = r.c4) };
    { name = "c4-c5-c6"; text = {|C4 < 50 && C5 < 50 && C6 < 50|};
      holds = (fun r -> r.c4 < 50 && r.c5 < 50 && r.c6 < 50) };
    { name = "udp"; text = {|protocl = "UDP" && C1 > 30 && C4 < 50|};
      holds = (fun r -> r.protocl = "UDP" && r.c1 > 30 && r.c4 < 50) }
  ]

type state = {
  cluster : Cluster.t;
  params : Crypto.Pohlig_hellman.params;
  queries : Query.t list;
  expected : Glsn.t list list;
  keygen_s : float;
  load_s : float;
}

let session st =
  Audit_session.run st.cluster ~auditor
    ~conjunction:(fun rng -> Crypto.Commutative.pohlig_hellman rng st.params)
    st.queries

let check st = function
  | Error e -> Harness.Failed (Audit_error.to_string e)
  | Ok (s : Audit_session.summary) ->
    if List.length s.Audit_session.entries <> List.length batch then
      Harness.Wrong "entry count"
    else
      let bad =
        List.concat
          (List.map2
             (fun (c, want) (e : Audit_session.entry) ->
               if
                 Rows.same_glsns e.Audit_session.matching want
                 && e.Audit_session.count = List.length want
               then []
               else [ c.Rows.name ])
             (List.combine batch st.expected) s.Audit_session.entries)
      in
      if bad = [] then Harness.Pass else Harness.Wrong ("criteria " ^ String.concat "," bad)

let build ~seed () =
  let params, keygen_s =
    Measure.time (fun () ->
        Crypto.Pohlig_hellman.generate_params (Prng.create ~seed:key_seed) ~bits:256)
  in
  let cluster, _, committed, load_s =
    Rows.load_cluster ~seed (Array.to_list (Rows.generate ~seed population))
  in
  let st =
    {
      cluster;
      params;
      queries = List.map Rows.parse batch;
      expected = List.map (fun c -> Rows.expected committed c.Rows.holds) batch;
      keygen_s;
      load_s;
    }
  in
  let warm, warm_s = Measure.time (fun () -> session st) in
  Harness.warm_up ~workload:"session_ph" (check st warm);
  (st, keygen_s +. load_s +. warm_s)

let run (cfg : Harness.cfg) =
  let pool = Domain_pool.create ~domains:pool_width in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Domain_pool.with_pool pool (fun () ->
          let keygen = ref [] and load = ref [] in
          let st, setup_s =
            Harness.setup_median ~reps:setup_reps (fun () ->
                let st, s = build ~seed:cfg.Harness.seed () in
                keygen := st.keygen_s :: !keygen;
                load := st.load_s :: !load;
                (st, s))
          in
          let ops = Harness.ops_for ~rate:ops_per_second cfg in
          let sources = { Measure.nets = [ Cluster.net st.cluster ]; fabric = None } in
          let l =
            Harness.run_ops cfg ~ops ~sources
              ~run:(fun () -> Spans.with_ "audit_session.run" (fun () -> session st))
              ~check:(check st)
          in
          let per_layer =
            if not cfg.Harness.trace then []
            else begin
              let normalized = List.map Query.normalize st.queries in
              Spans.scale := Measure.probe_ref /. Measure.probe ();
              Spans.enabled := true;
              for _ = 1 to 21 do
                Spans.with_ "planner.plan_many" (fun () ->
                    match Planner.plan_many Fragmentation.paper_partition normalized with
                    | Ok _ -> ()
                    | Error e -> failwith (Audit_error.to_string e))
              done;
              Spans.enabled := false;
              Harness.per_layer l
                ~modexp_us:(Harness.modexp_us st.params.Crypto.Pohlig_hellman.p)
                ~specific:
                  [ ("pohlig_hellman.keygen_s", Measure.median !keygen);
                    ("cluster.load_s", Measure.median !load);
                    ("planner.plan_ms", Harness.span_median "planner.plan_many" ~scale:1000.0)
                  ]
            end
          in
          { Harness.loop = l; setup_s; per_layer_metrics = per_layer; final_ok = true }))
