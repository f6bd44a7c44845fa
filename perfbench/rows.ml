(* The seeded log population and the benchmark's own answer oracle.

   Every column is a seeded permutation of a fixed multiset of values,
   so a single-column predicate selects exactly the same number of rows
   at every seed and only cross-column coincidences move with it: the
   amount of work an op does barely depends on the seed, while which
   records match does.  Criteria are paired with a plain OCaml predicate
   over these rows; the checks never consult the program's own query
   evaluator. *)

open Numtheory
open Dla

type row = {
  time : int;
  id : string;
  protocl : string;
  tid : string;  (** equal to [id] on a fixed quarter of the rows *)
  c1 : int;
  c2 : int;  (** money, in cents *)
  c3 : int;  (** money, in cents; equal to [c2] on a fixed fifth *)
  c4 : int;
  c5 : int;
  c6 : int;
}

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let generate ~seed n =
  let rng = Prng.create ~seed in
  let col () = permutation (Prng.split rng) n in
  let pt = col () and pi = col () and pp = col () and ptid = col ()
  and p1 = col () and p2 = col () and p3 = col () and p4 = col ()
  and p5 = col () and p6 = col () in
  Array.init n (fun i ->
      let id = Printf.sprintf "U%d" (pi.(i) mod 40) in
      let c2 = 500 + (p2.(i) * 131 mod 9000) in
      {
        time = 1_000_000 + (37 * pt.(i));
        id;
        protocl = (if pp.(i) mod 3 = 0 then "TCP" else "UDP");
        tid =
          (if ptid.(i) mod 4 = 0 then id else Printf.sprintf "T%06d" ptid.(i));
        c1 = p1.(i) * 7 mod 100;
        c2;
        c3 = (if p3.(i) mod 5 = 0 then c2 else 500 + (p3.(i) * 137 mod 9000));
        c4 = p4.(i) * 13 mod 100;
        c5 = p5.(i) * 17 mod 100;
        c6 = p6.(i) * 19 mod 100;
      })

let attributes r =
  let d = Attribute.defined and u = Attribute.undefined in
  [ (d "time", Value.Time r.time); (d "id", Value.Str r.id);
    (d "protocl", Value.Str r.protocl); (d "tid", Value.Str r.tid);
    (u 1, Value.Int r.c1); (u 2, Value.Money r.c2); (u 3, Value.Money r.c3);
    (u 4, Value.Int r.c4); (u 5, Value.Int r.c5); (u 6, Value.Int r.c6)
  ]

(* A criterion: its query text and the predicate it must mean. *)
type criterion = { name : string; text : string; holds : row -> bool }

let parse c =
  match Query.parse c.text with
  | Ok q -> q
  | Error e -> failwith (Printf.sprintf "criteria %S: %s" c.text e)

(* Glsns of the committed rows the predicate selects, ascending. *)
let expected committed holds =
  List.sort Glsn.compare
    (List.filter_map
       (fun (g, r) -> if holds r then Some g else None)
       committed)

let same_glsns a b = List.equal Glsn.equal a b

(* A 4-node paper-partition cluster with one logging principal, loaded
   with [rows] through Cluster.submit; the committed rows keyed by the
   glsn each submit returned, in submission order, and the time the
   creation and the load took. *)
let load_cluster ~seed rows =
  let (cluster, ticket), create_s =
    Measure.time (fun () ->
        let cluster =
          Cluster.create ~seed
            ~net:(Net.Network.of_config (Net.Config.make ~seed ()))
            Fragmentation.paper_partition
        in
        ( cluster,
          Cluster.issue_ticket cluster ~id:"bench" ~principal:(Net.Node_id.User 1)
            ~rights:[ Ticket.Read; Ticket.Write ] ~ttl:86400 ))
  in
  let committed, load_s =
    Measure.time_each
      (fun r ->
        match
          Cluster.to_result
            (Cluster.submit cluster ~ticket ~origin:(Net.Node_id.User 1)
               ~attributes:(attributes r))
        with
        | Ok g -> (g, r)
        | Error e -> failwith ("load: " ^ e))
      rows
  in
  (cluster, ticket, committed, create_s +. load_s)
