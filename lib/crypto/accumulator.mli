(** One-way quasi-commutative accumulator (paper §4.1, eq 8–9; refs
    [26][27], Benaloh–de Mare style).

    [A(x, y) = x^y mod n] over an RSA modulus [n].  Accumulating a set of
    exponents gives the same value in any order — eq (9) — which is
    exactly what lets DLA nodes circulate an integrity digest around the
    ring, each folding in its own log fragment, and compare the result
    against the value the user deposited at logging time. *)

open Numtheory

type params = private { n : Bignum.t; x0 : Bignum.t }
(** [n] is an RSA modulus of unknown factorization (to the cluster);
    [x0] is the agreed start value (paper: "x0 must be agreed upon in
    advance by P and U"). *)

val generate : Numtheory.Prng.t -> bits:int -> params
(** Fresh modulus and start value.  The factors are discarded — no
    trapdoor holder exists in the cluster. *)

val of_values : n:Bignum.t -> x0:Bignum.t -> params
(** Wrap externally agreed values.
    @raise Invalid_argument unless [1 < x0 < n] and [n > 3]. *)

val exponent_of_bytes : string -> Bignum.t
(** Deterministic odd exponent derived from a payload by SHA-256 (odd so
    that it is coprime to the even group order with overwhelming
    probability). *)

val accumulate : params -> Bignum.t -> y:Bignum.t -> Bignum.t
(** One fold step: [acc^y mod n].
    @raise Invalid_argument if [y <= 0]. *)

val accumulate_bytes : params -> Bignum.t -> string -> Bignum.t
(** [accumulate] after {!exponent_of_bytes}. *)

val accumulate_all : params -> string list -> Bignum.t
(** Fold the whole list starting from [x0]. *)

val summarize : params -> Bignum.t list -> Bignum.t
(** Fold a collection of {e existing} accumulator values (e.g. the
    per-record integrity digests a cluster has deposited) into one
    summary value: each digest is re-hashed to an odd exponent and
    folded from [x0].  By eq (9) the result is independent of the
    collection order, which is what lets a checkpoint commit to "all
    digests so far" without fixing an enumeration order.

    Cost grows with the whole collection: the product exponent carries
    ~256 bits per digest, building it takes a quadratic number of limb
    multiplications, and past 64 digests the exponent outgrows the
    16,384-bit fixed-base table limit of {!Numtheory.Modular.pow_base},
    so the power takes one squaring per exponent bit.  To keep a summary
    current as digests arrive, use {!extend}. *)

val extend : params -> summary:Bignum.t -> Bignum.t list -> Bignum.t
(** [extend p ~summary ds] folds further digests into a running
    summary: [summary^(Π yᵢ) mod n] with [yᵢ] the exponent of each
    digest in [ds].  By eq (9),
    [extend p ~summary:(summarize p a) b = summarize p (a @ b)], at the
    cost of the new digests only (~256 exponent bits each).  The empty
    list returns [summary] unchanged. *)

(** {1 Membership witnesses}

    Ref [27] of the paper (Goodrich–Tamassia–Hasic, "An Efficient
    Dynamic and Distributed Cryptographic Accumulator"): a holder of
    element [y] keeps the accumulation of {e all other} elements as a
    witness [w]; then [w^y = total] proves membership without touching
    anyone else's data.  This gives the DLA cluster a cheaper
    integrity-check mode than full ring circulation: a single node can
    be challenged in isolation (see [bench cost_integrity]'s ablation). *)

val witnesses : params -> string list -> (string * Bignum.t) list
(** [(element, witness)] for every element of the set: the witness is
    the accumulation of the other elements, so
    [accumulate (witness) (exponent element) = accumulate_all set].
    Computed as [x0^(Π_{j≠i} yⱼ)] via prefix/suffix exponent products
    over the fixed-base window table — O(n) exponentiations with zero
    squarings, value-identical to refolding the other elements. *)

val verify_membership :
  params -> total:Bignum.t -> witness:Bignum.t -> string -> bool
(** Does [witness^H(element) = total]? *)

val verify_members :
  Numtheory.Prng.t ->
  params ->
  total:Bignum.t ->
  (string * Bignum.t) list ->
  bool
(** Batch membership check over [(element, witness)] pairs by random
    linear combination: one Shamir multi-exponentiation
    ({!Numtheory.Modular.multi_pow}) replaces one full-width power per
    pair.  Complete (honest witness sets always pass); sound except
    with probability ~2⁻³⁰ per run over the sampled coefficients.
    The empty list verifies trivially. *)

val add : params -> total:Bignum.t -> string -> Bignum.t
(** Dynamic insertion: new total after accumulating one more element. *)

val update_witness :
  params -> witness:Bignum.t -> added:string -> Bignum.t
(** Keep an existing witness valid across an insertion: fold the new
    element into the witness too. *)

val update_witness_many :
  params -> witness:Bignum.t -> added:string list -> Bignum.t
(** {!update_witness} for a batch of insertions in one exponentiation:
    [witness^(Π yᵢ)].  Equals folding {!update_witness} over the list. *)
