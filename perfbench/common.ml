(* Shared helpers: the one clock every timing goes through, order
   statistics, process memory and GC counters. *)

module Clock = Relpipe_obs.Clock
module Json = Relpipe_service.Json

let clock = Clock.monotonic ()
let now_ns () = Clock.now_ns clock
let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* Nearest-rank percentile of an unsorted sample, [p] in (0, 1]. *)
let percentile p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs

(* Median of [values.(i)] over the quieter half of the segments: the
   [(n + 1) / 2] with the least host steal [steal_i] (ties keep segment
   order).  The hypervisor's preemption comes in bursts that can take a
   third of a segment's CPU time; this keeps such a segment, whichever
   it is, from setting the run's figure. *)
let quiet_median steal values =
  let ranked =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      (List.combine steal (Array.to_list values))
  in
  median (Array.of_list (List.filteri (fun i _ -> i < (List.length ranked + 1) / 2) (List.map snd ranked)))

(* Samples strictly above the nearest-rank [p] percentile's rank. *)
let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n))

let sum xs = Array.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if Float.equal b 0.0 then 0.0 else a /. b
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Peak resident set ([VmHWM]) of a live process, in MiB. *)
let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.0
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

(* Minor words allocated and major collections completed, for deltas
   around a unit of work. *)
type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

let gc_delta a b =
  (b.minor_words -. a.minor_words, b.major - a.major)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

(* Aggregate CPU ticks since boot and the share the hypervisor took
   (steal), from the first line of /proc/stat; (0, 0) when unreadable. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> (0, 0)
  | None -> (0, 0)
  | Some line -> (
      match List.filter (fun f -> not (String.equal f "")) (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map (fun f -> Option.value ~default:0 (int_of_string_opt f)) fields in
          let total = List.fold_left ( + ) 0 v in
          let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
          (total, steal)
      | _ -> (0, 0))

let steal_share (t0, s0) (t1, s1) = ratio (s1 - s0) (t1 - t0)
