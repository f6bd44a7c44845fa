(** Streaming continuous audits.

    An on-demand audit ({!Auditor_engine.run}) re-derives every glsn set
    from scratch.  This engine keeps the standing criteria of a
    {!Continuous_registry} continuously answered instead: it hooks
    {!Cluster.on_commit}, and on each committed glsn applies a {e delta}
    to its long-lived {!Executor.cache}:

    - a clause whose atoms are all {e local} takes an insert-only delta
      — the one new record is judged against each atom at its home
      (exactly {!Executor.eval_local_atom}'s per-record semantics) and
      the glsn is added to the cached atom/clause sets.  No SMC
      machinery runs, no messages move ([audit.delta.insert]);
    - a clause with a {e cross} atom cannot absorb one row into an
      already-blinded column comparison, so exactly that clause is
      dropped and re-blinded from its stores, at one clause's worth of
      §3 messages ([audit.delta.reblind]);
    - a clause with no usable entry (registration, taint purge after a
      quarantine, node recovery) is rebuilt the same way
      ([audit.delta.rebuild]).

    Verdicts are the conjunction of the cached clause sets — metadata
    set algebra, byte-identical to what a from-scratch run returns (the
    differential battery in [test_continuous.ml] proves this per
    commit).  Changes are emitted as typed {!delta}s and folded into a
    running delta-stream hash; every [checkpoint_interval] commits the
    engine cuts a {!Continuous_checkpoint} linking the accumulator
    summary of all integrity digests with that stream hash, and
    publishes the 64-hex head to the verifier (Metadata-class, checked
    by {!Spec.View_auditor}). *)

type delta =
  | Verdict_changed of {
      id : Continuous_registry.id;
      added : Glsn.t list;  (** withheld ([[]]) under [Count_only] *)
      removed : Glsn.t list;  (** nonempty only after a rollback *)
      count : int;  (** new cardinality *)
    }
  | Coverage_changed of {
      id : Continuous_registry.id;
      complete : bool;
      unreachable : Net.Node_id.t list;
    }  (** under [Degrade], the evaluable fraction changed *)

val delta_to_string : delta -> string
(** Canonical serialization — the unit the delta-stream hash absorbs. *)

type verdict = {
  matching : Glsn.t list;
      (** sorted ascending; empty under [Count_only], like
          {!Executor.report.matching} *)
  count : int;
  complete : bool;
  unreachable : Net.Node_id.t list;
}

type t

val create :
  ?ttp:Net.Node_id.t ->
  ?verifier:Net.Node_id.t ->
  ?failure_mode:Executor.failure_mode ->
  ?checkpoint_interval:int ->
  ?on_delta:(delta -> unit) ->
  Continuous_registry.t ->
  t
(** Attach an engine to the registry's cluster: registers
    {!Cluster.on_commit}/{!Cluster.on_rollback} hooks, so every
    subsequent commit is processed inline.  [checkpoint_interval]
    defaults to [0] — no automatic checkpoints (use {!checkpoint_now}).
    [failure_mode] defaults to [Fail]: a rebuild hitting a partition
    raises {!Net.Network.Partitioned} out of the commit, exactly like a
    from-scratch audit would at that moment.  [verifier] (default
    [Auditor]) receives each published checkpoint head. *)

val register :
  t ->
  ?delivery:Executor.delivery ->
  Auditor_engine.request ->
  (Continuous_registry.id, Audit_error.t) result
(** Register a standing criterion and initialize its verdict from a
    clean per-clause rebuild; an initial non-empty match emits a
    [Verdict_changed]. *)

val process : t -> Glsn.t -> unit
(** Fold one committed glsn in — what the commit hook calls.  Safe to
    call again for the same glsn (deltas are idempotent inserts), which
    is how drained hints are absorbed. *)

val retract : t -> Glsn.t -> unit
(** Rollback: strip the glsn from every cached set and re-derive the
    verdicts — the only path that emits [removed]. *)

val verdict : t -> Continuous_registry.id -> verdict option
val verdicts : t -> (Continuous_registry.id * verdict) list

val deltas : t -> delta list
(** Every delta emitted so far, oldest first. *)

val checkpoint_now : t -> Continuous_checkpoint.checkpoint
(** Cut, link and publish a checkpoint immediately.  While every digest
    the previous checkpoint's summary covers is still stored unchanged,
    its accumulator extends that summary with only the digests stored
    since ({!Crypto.Accumulator.extend}, eq 9); otherwise — the first
    checkpoint, a rollback, a changed digest — it summarizes every
    stored digest afresh and counts [audit.delta.checkpoint_rescan].
    The value is the same either way. *)

val commits : t -> int
val cache : t -> Executor.cache
(** The engine's live cache — hand it to {!Byzantine.audit} [?cache] so
    a mid-stream quarantine purges tainted incremental state too. *)

val chain : t -> Continuous_checkpoint.chain
val delta_stream_hash : t -> string
val registry : t -> Continuous_registry.t
