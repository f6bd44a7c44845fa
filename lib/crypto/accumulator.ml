open Numtheory

type params = { n : Bignum.t; x0 : Bignum.t }

let generate rng ~bits =
  let n, _p, _q = Primes.rsa_modulus rng ~bits in
  let x0 = Prng.bignum_range rng Bignum.two (Bignum.pred n) in
  { n; x0 }

let of_values ~n ~x0 =
  if Bignum.compare n (Bignum.of_int 4) <= 0 then
    invalid_arg "Accumulator.of_values: modulus too small"
  else if Bignum.compare x0 Bignum.one <= 0 || Bignum.compare x0 n >= 0 then
    invalid_arg "Accumulator.of_values: x0 outside (1, n)"
  else { n; x0 }

let exponent_of_bytes payload =
  Bignum.logor (Bignum.of_bytes_be (Sha256.digest payload)) Bignum.one

let accumulate { n; _ } acc ~y =
  if Bignum.sign y <= 0 then invalid_arg "Accumulator.accumulate: y <= 0"
  else Modular.pow acc y ~m:n (* generic-path: the base varies per call *)

let accumulate_bytes params acc payload =
  accumulate params acc ~y:(exponent_of_bytes payload)

(* Quasi-commutativity (eq 9) collapses any fold from [x0] into a
   single power of the long-lived seed: [x0^(Π yᵢ)], routed through the
   fixed-base window table.  That is squaring-free only while the
   product stays within [Modular.fixed_base_max_bits] (16,384 bits,
   about 64 SHA-256 exponents); past it [pow_base] takes the generic
   windowed path, one squaring per exponent bit, and building the
   product itself costs a quadratic number of limb multiplications. *)
let product_exponent payloads =
  List.fold_left
    (fun acc payload -> Bignum.mul acc (exponent_of_bytes payload))
    Bignum.one payloads

let accumulate_all params payloads =
  Modular.pow_base ~base:params.x0 (product_exponent payloads) ~m:params.n

let witnesses params payloads =
  (* Prefix/suffix exponent products give every witness
     [x0^(Π_{j≠i} yⱼ)] in O(n) bignum multiplications plus n
     fixed-base exponentiations — the old quadratic refold of the
     other n-1 elements per witness is gone, values unchanged. *)
  let ys = Array.of_list (List.map exponent_of_bytes payloads) in
  let n = Array.length ys in
  let prefix = Array.make (n + 1) Bignum.one in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- Bignum.mul prefix.(i) ys.(i)
  done;
  let suffix = Array.make (n + 1) Bignum.one in
  for i = n - 1 downto 0 do
    suffix.(i) <- Bignum.mul suffix.(i + 1) ys.(i)
  done;
  List.mapi
    (fun i payload ->
      ( payload,
        Modular.pow_base ~base:params.x0
          (Bignum.mul prefix.(i) suffix.(i + 1))
          ~m:params.n ))
    payloads

let digest_payloads digests = List.map Bignum.to_string digests

let summarize params digests = accumulate_all params (digest_payloads digests)

let extend params ~summary digests =
  (* Eq (9): (x0^(Π a))^(Π b) = x0^(Π a · Π b), so a running summary
     takes in new digests without refolding the old ones. *)
  match digests with
  | [] -> summary
  | _ ->
    Modular.pow summary
      (product_exponent (digest_payloads digests))
      ~m:params.n (* generic-path: the base is the running summary *)

let verify_membership params ~total ~witness payload =
  Bignum.equal (accumulate_bytes params witness payload) total

let verify_members rng params ~total pairs =
  (* Probabilistic batch check via one Shamir multi-exponentiation:
     draw a small random rᵢ per pair; then Π wᵢ^(yᵢ·rᵢ) = total^(Σ rᵢ)
     holds iff every wᵢ^yᵢ = total, except with probability ~2⁻³⁰ over
     the rᵢ.  |pairs| full-width exponentiations become one multi_pow
     plus one short power of [total]. *)
  match pairs with
  | [] -> true
  | _ ->
    let terms =
      List.map
        (fun (payload, witness) ->
          let r = Bignum.succ (Prng.bits rng 30) in
          (witness, Bignum.mul (exponent_of_bytes payload) r, r))
        pairs
    in
    let lhs =
      Modular.multi_pow
        (List.map (fun (w, e, _) -> (w, e)) terms)
        ~m:params.n
    in
    let r_sum =
      List.fold_left (fun acc (_, _, r) -> Bignum.add acc r) Bignum.zero terms
    in
    Bignum.equal lhs
      (Modular.pow total r_sum ~m:params.n (* generic-path: per-set total *))

let add params ~total payload = accumulate_bytes params total payload

let update_witness params ~witness ~added =
  accumulate_bytes params witness added

let update_witness_many params ~witness ~added =
  (* One exponentiation keeps a witness valid across a whole batch of
     insertions: w^(Π yᵢ). *)
  match added with
  | [] -> witness
  | _ ->
    Modular.pow witness (product_exponent added)
      ~m:params.n (* generic-path: witness base is per-holder *)
