(* Wall-clock spans the benchmark records around its own calls into each
   layer, kept in memory and summarized when the run ends.  Off unless
   the run is traced; off, [with_] is a plain call and [record] does
   nothing.  Spans of one op share its [op] number; [parent] is the id
   of the span that was open when this one started (-1 at the root).
   Times are CPU times, scaled to the reference host speed by the
   factor [scale] in force when the span was recorded (set from the
   probe before each op, see {!Measure.probe}). *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start : float;
  stop : float;
  scale : float;
}

let enabled = ref false
let current_op = ref 0
let scale = ref 1.0
let next_id = ref 0
let open_ids : int list ref = ref []
let completed : span list ref = ref []

let parent () = match !open_ids with id :: _ -> id | [] -> -1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let record ~name ~start ~stop =
  if !enabled then
    completed :=
      { id = fresh_id (); name; op = !current_op; parent = parent (); start; stop;
        scale = !scale }
      :: !completed

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = parent () in
    open_ids := id :: !open_ids;
    let start = Measure.cpu () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Measure.cpu () in
        open_ids := List.tl !open_ids;
        completed :=
          { id; name; op = !current_op; parent; start; stop; scale = !scale }
          :: !completed)
      f
  end

(* Durations in seconds, at the reference host speed, of every completed
   span called [name]. *)
let duration s = (s.stop -. s.start) *. s.scale

let durations name =
  List.filter_map (fun s -> if s.name = name then Some (duration s) else None) !completed

(* Per-name count, total and self time (total minus the time its direct
   children cover), printed as a table at the end of a traced run. *)
let print_summary () =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !completed;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let total = duration s in
      let self =
        total -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let n, t, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, t +. total, sf +. self))
    !completed;
  let rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])
  in
  Printf.printf "# %-34s %7s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, (n, total, self)) ->
      Printf.printf "# %-34s %7d %12.3f %12.3f\n" name n (1000.0 *. total)
        (1000.0 *. self))
    rows
