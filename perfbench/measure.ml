(* Timing, order statistics, counter snapshots and GC readings shared by
   the three workloads. *)

(* CPU time of this process in seconds: user + system, all domains,
   from getrusage.  Unlike wall-clock time it leaves out the time the
   hypervisor of a shared virtual machine takes from the guest
   (steal). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let wall = Unix.gettimeofday

(* Host-speed normalization.  On a shared virtual machine the speed of
   the CPU itself changes from one second to the next (on the host this
   benchmark was built on, by up to 1.8x), so CPU times of the same code
   differ between runs by far more than any change worth detecting.
   Every time the benchmark reports is therefore CPU time at a
   reference host speed: the CPU time of the measured call, multiplied
   by [probe_ref] over the CPU time of [probe] — a fixed integer loop
   that uses none of the program's code and allocates nothing — run
   just before and just after the call.  At the reference speed the
   probe takes exactly [probe_ref]. *)
let probe_ref = 0.4e-3

let probe () =
  let t0 = cpu () in
  let acc = ref 0 in
  for i = 1 to 300_000 do
    acc := !acc + (i * i land 1023)
  done;
  ignore (Sys.opaque_identity !acc);
  Float.max 1e-6 (cpu () -. t0)

(* [f ()] and its CPU time in seconds at the reference host speed. *)
let time f =
  let p0 = probe () in
  let t0 = cpu () in
  let r = f () in
  let raw = cpu () -. t0 in
  (r, raw *. probe_ref /. ((p0 +. probe ()) /. 2.0))

(* [f] over [xs], timed chunk by chunk so that a long loop follows the
   host's speed as it changes; results in order, times summed. *)
let time_each ?(chunk = 50) f xs =
  let rec go acc total = function
    | [] -> (List.concat (List.rev acc), total)
    | xs ->
      let c = List.filteri (fun i _ -> i < chunk) xs in
      let rest = List.filteri (fun i _ -> i >= chunk) xs in
      let r, t = time (fun () -> List.map f c) in
      go (r :: acc) (total +. t) rest
  in
  go [] 0.0 xs

(* Host CPU time taken from this machine (steal) and all CPU time, in
   clock ticks, from the first line of /proc/stat; zeros where the file
   cannot be read. *)
let host_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 v)
    | _ -> (0, 0)
  with Sys_error _ | Failure _ | End_of_file -> (0, 0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail statistic: the highest order statistic with at least ten
   samples above it (sorted index n - 11).  A run makes a fixed number
   of ops, so this is the same percentile on every run; [tail_percentile]
   names it for the header. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (n - 11))

let tail_percentile n =
  if n <= 11 then 0.0 else 100.0 *. float_of_int (n - 10) /. float_of_int n

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Counters the program already keeps in [Obs.Metrics.global]; read as
   differences, never reset. *)
let counter_names =
  [ "crypto.modexp"; "crypto.mont.cache_miss"; "pool.jobs"; "pool.inline";
    "crypto.commutative.enc"; "crypto.commutative.dec"; "crypto.blind.affine";
    "crypto.blind.monotone"; "crypto.shamir.eval"; "crypto.shamir.interpolate";
    "executor.atoms.local"; "executor.atoms.cross"; "audit.cache_hit";
    "audit.dedup_clauses"; "audit.delta.reblind"; "audit.delta.insert"
  ]

type snapshot = {
  counters : (string * int) list;
  msgs : int;
  bytes : int;
  rounds : int;
  fabric_msgs : int;
  ledger : int;
  minor_words : float;
  major_collections : int;
}

type sources = {
  nets : Net.Network.t list;  (** every cluster network *)
  fabric : Net.Network.t option;  (** the shard fabric, if any *)
}

let snapshot src =
  let stats = List.map Net.Network.stats src.nets in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let fabric = Option.map Net.Network.stats src.fabric in
  let fab f = match fabric with Some s -> f s | None -> 0 in
  let gc = Gc.quick_stat () in
  {
    counters = List.map (fun n -> (n, Obs.Metrics.get n)) counter_names;
    msgs = sum (fun s -> s.Net.Network.messages) + fab (fun s -> s.Net.Network.messages);
    bytes = sum (fun s -> s.Net.Network.bytes) + fab (fun s -> s.Net.Network.bytes);
    rounds = sum (fun s -> s.Net.Network.rounds) + fab (fun s -> s.Net.Network.rounds);
    fabric_msgs = fab (fun s -> s.Net.Network.messages);
    ledger =
      List.fold_left
        (fun acc n -> acc + Net.Ledger.size (Net.Network.ledger n))
        0
        (src.nets @ Option.to_list src.fabric);
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
  }

let counter_delta ~before ~after name =
  List.assoc name after.counters - List.assoc name before.counters

(* Peak major heap, sampled after every op. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let live_mb () =
  Gc.full_major ();
  mb_of_words (Gc.stat ()).Gc.live_words
