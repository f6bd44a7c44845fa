type delta =
  | Verdict_changed of {
      id : Continuous_registry.id;
      added : Glsn.t list;
      removed : Glsn.t list;
      count : int;
    }
  | Coverage_changed of {
      id : Continuous_registry.id;
      complete : bool;
      unreachable : Net.Node_id.t list;
    }

let delta_to_string = function
  | Verdict_changed { id; added; removed; count } ->
    Printf.sprintf "verdict|%d|+[%s]|-[%s]|%d" id
      (String.concat "," (List.map Glsn.to_string added))
      (String.concat "," (List.map Glsn.to_string removed))
      count
  | Coverage_changed { id; complete; unreachable } ->
    Printf.sprintf "coverage|%d|%b|[%s]" id complete
      (String.concat "," (List.map Net.Node_id.to_string unreachable))

type verdict = {
  matching : Glsn.t list;
  count : int;
  complete : bool;
  unreachable : Net.Node_id.t list;
}

type crit = {
  standing : Continuous_registry.standing;
  mutable current : Glsn.Set.t;
  mutable cov_complete : bool;
  mutable cov_unreachable : Net.Node_id.t list;
}

type t = {
  registry : Continuous_registry.t;
  cluster : Cluster.t;
  ttp : Net.Node_id.t;
  verifier : Net.Node_id.t;
  failure_mode : Executor.failure_mode;
  interval : int;
  on_delta : delta -> unit;
  cache : Executor.cache;
  chain : Continuous_checkpoint.chain;
  mutable folded : (Numtheory.Bignum.t Glsn.Map.t * Numtheory.Bignum.t) option;
      (* digests the last checkpoint's summary covers, and that summary;
         [None] until the first checkpoint *)
  mutable delta_hash : string;
  mutable commit_count : int;
  mutable crits : crit list;  (* ascending sid *)
  mutable deltas_rev : delta list;
}

let trusted t node = not (Cluster.is_quarantined t.cluster node)

let available t node =
  match t.failure_mode with
  | Executor.Fail -> true
  | Executor.Degrade ->
    Net.Network.is_up (Cluster.net t.cluster) node && trusted t node

let clause_key (clause : Planner.planned_clause) =
  Planner.clause_key
    (List.map (fun { Planner.atom; _ } -> atom) clause.Planner.atoms)

let clause_has_cross_atom (clause : Planner.planned_clause) =
  List.exists
    (fun { Planner.home; _ } ->
      match home with Planner.Cross _ -> true | Planner.Local _ -> false)
    clause.Planner.atoms

(* Does the newly committed record satisfy this local atom?  Judged
   per-record with exactly [Executor.eval_local_atom]'s semantics, so an
   inserted glsn lands in the cached set iff a from-scratch column scan
   would have put it there. *)
let local_atom_satisfied t ~node ~glsn (atom : Query.atom) =
  match Storage.fragment_of (Cluster.store_of t.cluster node) glsn with
  | None -> false (* fragment parked or rolled back: the store has no row *)
  | Some fragment -> (
    let holds a b =
      Value.comparable a b
      && Query.apply_comparison atom.Query.op (Value.compare_semantic a b)
    in
    match atom.Query.rhs with
    | Query.Const c -> (
      match List.assoc_opt atom.Query.attr fragment with
      | Some v -> holds v c
      | None -> false)
    | Query.Attr b -> (
      match
        (List.assoc_opt atom.Query.attr fragment, List.assoc_opt b fragment)
      with
      | Some va, Some vb -> holds va vb
      | _ -> false))

(* A standing audit outlives transient message loss: a dropped SMC
   message aborts one attempt of the current warm or publish, not the
   engine — the commit it rides on has already happened, so raising
   through the commit hook would desynchronize the incremental state
   from the log forever.  Bounded like the spec harness's schedule
   budget; a permanent partition (down endpoint, reason <> "loss")
   propagates immediately. *)
let max_loss_retries = 40

let with_loss_retry f =
  let rec go n =
    match f () with
    | result -> result
    | exception Net.Network.Partitioned { reason = "loss"; _ }
      when n + 1 < max_loss_retries ->
      Obs.Metrics.incr "audit.delta.loss_retry";
      go (n + 1)
  in
  go 0

(* Re-evaluate one clause from its stores: drop the clause entry and its
   atoms' entries, then warm exactly as a session would.  Costs one
   clause's worth of §3 messages — the fallback for deltas that cannot
   be expressed incrementally, and the initializer at registration. *)
let rebuild_clause t clause =
  with_loss_retry (fun () ->
      Executor.cache_drop_clause t.cache ~key:(clause_key clause);
      List.iter
        (fun pa ->
          Executor.cache_drop_atom t.cache
            ~key:(Planner.atom_key pa.Planner.atom))
        clause.Planner.atoms;
      Executor.warm_clause t.cluster ~ttp:t.ttp ~on_failure:t.failure_mode
        ~cache:t.cache clause)

(* Fold one committed glsn into one clause's cached entry. *)
let apply_clause_delta t ~glsn clause =
  let key = clause_key clause in
  match
    Executor.cache_lookup_clause t.cache ~available:(available t)
      ~trusted:(trusted t) key
  with
  | None ->
    (* nothing cached (first sight, taint purge, or node recovery):
       evaluate from clean sources *)
    Obs.Metrics.incr "audit.delta.rebuild";
    rebuild_clause t clause
  | Some _ when clause_has_cross_atom clause ->
    (* a cross atom compares whole blinded columns at the TTP — one new
       row invalidates the comparison wholesale, so re-blind just this
       clause *)
    Obs.Metrics.incr "audit.delta.reblind";
    rebuild_clause t clause
  | Some _ ->
    (* insert-only delta: no SMC machinery, no messages — evaluate the
       one new record against each local atom at its home *)
    Obs.Metrics.incr "audit.delta.insert";
    let satisfied = ref false in
    List.iter
      (fun pa ->
        match pa.Planner.home with
        | Planner.Cross _ -> ()
        | Planner.Local node ->
          if available t node && local_atom_satisfied t ~node ~glsn pa.Planner.atom
          then begin
            satisfied := true;
            ignore
              (Executor.cache_insert_glsn_atom t.cache
                 ~key:(Planner.atom_key pa.Planner.atom)
                 glsn)
          end)
      clause.Planner.atoms;
    if !satisfied then
      ignore (Executor.cache_insert_glsn_clause t.cache ~key glsn)

let emit t delta =
  t.deltas_rev <- delta :: t.deltas_rev;
  t.delta_hash <-
    Crypto.Sha256.digest_hex (t.delta_hash ^ "|" ^ delta_to_string delta);
  Obs.Metrics.incr
    (match delta with
    | Verdict_changed _ -> "audit.delta.verdict_changed"
    | Coverage_changed _ -> "audit.delta.coverage_changed");
  t.on_delta delta

(* Conjunction over the cached clause sets — the same set algebra the
   executor's ∩ₛ rounds compute, applied to Definition-1 metadata the
   engine already holds, so no messages move.  Trust is NOT re-checked
   here: the delta pass just purged/rebuilt the entries, and under
   [Fail] a from-scratch run evaluates a quarantined-but-reachable
   node's data too — re-dropping the rebuilt entry would diverge from
   that oracle. *)
let refresh_verdict t crit =
  let plan = crit.standing.Continuous_registry.plan in
  let sets = ref [] in
  let down = ref Net.Node_id.Set.empty in
  let all_present = ref true in
  List.iter
    (fun clause ->
      match
        Executor.cache_lookup_clause t.cache ~available:(available t)
          ~trusted:(fun _ -> true)
          (clause_key clause)
      with
      | Some entry ->
        sets := entry.Executor.glsns :: !sets;
        if not entry.Executor.is_complete then begin
          all_present := false;
          List.iter
            (fun n -> down := Net.Node_id.Set.add n !down)
            entry.Executor.missing_nodes
        end
      | None ->
        (* the clause could not be (re)built: its home is the gap *)
        all_present := false;
        down := Net.Node_id.Set.add clause.Planner.clause_home !down)
    plan.Planner.clauses;
  let current =
    match !sets with
    | [] -> Glsn.Set.empty
    | s :: rest -> List.fold_left Glsn.Set.inter s rest
  in
  let complete = !all_present in
  let unreachable = Net.Node_id.Set.elements !down in
  if not (Glsn.Set.equal current crit.current) then begin
    let added = Glsn.Set.elements (Glsn.Set.diff current crit.current) in
    let removed = Glsn.Set.elements (Glsn.Set.diff crit.current current) in
    let added, removed =
      match crit.standing.Continuous_registry.delivery with
      | Executor.Glsns -> (added, removed)
      | Executor.Count_only -> ([], []) (* secret counting: cardinality only *)
    in
    emit t
      (Verdict_changed
         {
           id = crit.standing.Continuous_registry.sid;
           added;
           removed;
           count = Glsn.Set.cardinal current;
         })
  end;
  if complete <> crit.cov_complete || unreachable <> crit.cov_unreachable then
    emit t
      (Coverage_changed
         { id = crit.standing.Continuous_registry.sid; complete; unreachable });
  crit.current <- current;
  crit.cov_complete <- complete;
  crit.cov_unreachable <- unreachable

(* Reconcile with the registry: initialize newly registered criteria
   (always from a clean rebuild — a cached atom left by an earlier
   session could predate recent commits), forget unregistered ones. *)
let sync t =
  let reg = Continuous_registry.registered t.registry in
  let still_registered crit =
    List.exists
      (fun s ->
        s.Continuous_registry.sid = crit.standing.Continuous_registry.sid)
      reg
  in
  t.crits <- List.filter still_registered t.crits;
  List.iter
    (fun s ->
      let known =
        List.exists
          (fun crit ->
            crit.standing.Continuous_registry.sid = s.Continuous_registry.sid)
          t.crits
      in
      if not known then begin
        let crit =
          {
            standing = s;
            current = Glsn.Set.empty;
            cov_complete = true;
            cov_unreachable = [];
          }
        in
        List.iter (rebuild_clause t)
          s.Continuous_registry.plan.Planner.clauses;
        t.crits <- t.crits @ [ crit ];
        refresh_verdict t crit
      end)
    reg

(* The accumulator summary over every stored record's digest.  By
   eq (9) the last checkpoint's summary takes in only the digests stored
   since — O(interval × 256) exponent bits instead of O(log) — as long
   as every digest it covers is still stored unchanged.  Otherwise (the
   first checkpoint, a rollback, a repaired or changed digest) it is
   recomputed from scratch; the value is the same either way. *)
let current_summary t =
  let params = Cluster.accumulator_params t.cluster in
  let digests = Cluster.integrity_digests t.cluster in
  let rescan () =
    Obs.Metrics.incr "audit.delta.checkpoint_rescan";
    ( Glsn.Map.of_seq (List.to_seq digests),
      Crypto.Accumulator.summarize params (List.map snd digests) )
  in
  let folded, summary =
    match t.folded with
    | None -> rescan ()
    | Some (folded, summary) ->
      let kept, fresh =
        List.partition (fun (g, _) -> Glsn.Map.mem g folded) digests
      in
      if
        List.length kept = Glsn.Map.cardinal folded
        && List.for_all
             (fun (g, d) -> Numtheory.Bignum.equal d (Glsn.Map.find g folded))
             kept
      then
        ( List.fold_left (fun m (g, d) -> Glsn.Map.add g d m) folded fresh,
          Crypto.Accumulator.extend params ~summary (List.map snd fresh) )
      else rescan ()
  in
  t.folded <- Some (folded, summary);
  summary

let checkpoint_now t =
  let summary = current_summary t in
  let accumulator =
    Crypto.Sha256.digest_hex (Numtheory.Bignum.to_string summary)
  in
  let cp =
    Continuous_checkpoint.append t.chain ~commits:t.commit_count ~accumulator
      ~delta_hash:t.delta_hash
  in
  Obs.Metrics.incr "audit.delta.checkpoint";
  (* Publish the head to the verifier: 64 hex chars of commitment,
     nothing else — the out-of-band anchor that makes suffix truncation
     detectable.  The spec layer's view auditor checks exactly this
     shape on every "ckpt:" observation. *)
  let net = Cluster.net t.cluster in
  with_loss_retry (fun () ->
      Net.Network.send_exn net ~src:t.ttp ~dst:t.verifier
        ~label:"continuous:checkpoint" ~bytes:64);
  Smc.Proto_util.observe net ~node:t.verifier ~sensitivity:Net.Ledger.Metadata
    ~tag:"ckpt:publish" cp.Continuous_checkpoint.digest;
  Net.Network.round ~label:"continuous" net;
  cp

let process t glsn =
  Obs.Metrics.incr "audit.delta.commits";
  sync t;
  (match Cluster.quarantined t.cluster with
  | [] -> ()
  | nodes ->
    (* eager form of the lookup-time taint check: an accused node's
       contributions leave the incremental state before any delta
       touches it *)
    ignore (Executor.cache_purge t.cache ~nodes));
  let seen = Hashtbl.create 8 in
  List.iter
    (fun crit ->
      List.iter
        (fun clause ->
          let key = clause_key clause in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            apply_clause_delta t ~glsn clause
          end)
        crit.standing.Continuous_registry.plan.Planner.clauses)
    t.crits;
  List.iter (refresh_verdict t) t.crits;
  t.commit_count <- t.commit_count + 1;
  if t.interval > 0 && t.commit_count mod t.interval = 0 then
    ignore (checkpoint_now t)

let retract t glsn =
  Obs.Metrics.incr "audit.delta.retract";
  ignore (Executor.cache_remove_glsn t.cache glsn);
  List.iter (refresh_verdict t) t.crits

let create ?(ttp = Net.Node_id.Ttp "query") ?(verifier = Net.Node_id.Auditor)
    ?(failure_mode = Executor.Fail) ?(checkpoint_interval = 0)
    ?(on_delta = fun _ -> ()) registry =
  let t =
    {
      registry;
      cluster = Continuous_registry.cluster registry;
      ttp;
      verifier;
      failure_mode;
      interval = checkpoint_interval;
      on_delta;
      cache = Executor.cache_create ();
      chain = Continuous_checkpoint.create ();
      folded = None;
      delta_hash = Continuous_checkpoint.genesis;
      commit_count = 0;
      crits = [];
      deltas_rev = [];
    }
  in
  Cluster.on_commit t.cluster (fun glsn -> process t glsn);
  Cluster.on_rollback t.cluster (fun glsn -> retract t glsn);
  sync t;
  t

let register t ?delivery request =
  match Continuous_registry.register t.registry ?delivery request with
  | Error e -> Error e
  | Ok sid ->
    sync t;
    Ok sid

let exposed_verdict crit =
  let matching =
    match crit.standing.Continuous_registry.delivery with
    | Executor.Glsns -> Glsn.Set.elements crit.current
    | Executor.Count_only -> []
  in
  {
    matching;
    count = Glsn.Set.cardinal crit.current;
    complete = crit.cov_complete;
    unreachable = crit.cov_unreachable;
  }

let verdict t sid =
  Option.map exposed_verdict
    (List.find_opt
       (fun crit -> crit.standing.Continuous_registry.sid = sid)
       t.crits)

let verdicts t =
  List.map
    (fun crit -> (crit.standing.Continuous_registry.sid, exposed_verdict crit))
    t.crits

let deltas t = List.rev t.deltas_rev
let commits t = t.commit_count
let cache t = t.cache
let chain t = t.chain
let delta_stream_hash t = t.delta_hash
let registry t = t.registry
