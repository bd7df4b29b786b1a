(* The reference probe: 5,000 reads at random places in a 32 MB array,
   timed between steps and outside them. On a shared host other tenants'
   use of the caches and memory slows this program by up to 40 % for
   seconds or minutes at a time; the probe, fixed in the benchmark, slows
   with it. The gated step times are each step's time divided by the
   probe's time measured around it, so they follow the program and not
   the host.

   The array lives outside the OCaml heap (a Bigarray), so it adds
   nothing to the heap figures, and the probe allocates nothing. Its
   pages are written once at creation, so every read touches memory of
   its own. *)

module A = Bigarray.Array1

let words = 4 * 1024 * 1024 (* 32 MB of 8-byte words *)
let reads = 5_000

(* Median of the probes within this many on either side smooths each
   step's divisor over a fraction of a second. *)
let half_window = 16

type t = {
  a : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable r : int;  (* LCG state *)
  mutable sink : int;
  times : Out.Sample.t;  (* ns per probe *)
  at : Out.Sample.t;  (* steps recorded before each probe *)
}

let create () =
  let a = A.create Bigarray.int Bigarray.c_layout words in
  for i = 0 to words - 1 do
    A.unsafe_set a i (i * 0x9E3779B1)
  done;
  { a; r = 12345; sink = 0; times = Out.Sample.create (); at = Out.Sample.create () }

(* One probe, after [steps] steps have been recorded. *)
let run t ~steps =
  let a = t.a and r = ref t.r and s = ref 0 in
  let t0 = Trace.now () in
  for _ = 1 to reads do
    r := ((!r * 1103515245) + 12345) land 0x3fffffff;
    s := !s + A.unsafe_get a (!r land (words - 1))
  done;
  let dt = Trace.now () - t0 in
  t.r <- !r;
  t.sink <- t.sink lxor !s;
  Out.Sample.add t.times dt;
  Out.Sample.add t.at steps

let count t = Out.Sample.count t.times
let median_ns t = Out.Sample.percentile t.times 50.

(* Each step's time over the median of the probes around it: the probes
   within [half_window] of the first one taken after the step. *)
let relative t (steps : Out.Sample.t) =
  if count t = 0 then run t ~steps:(Out.Sample.count steps);
  let m = count t in
  let times = Array.sub t.times.Out.Sample.a 0 m in
  let smooth =
    Array.init m (fun i ->
        let lo = max 0 (i - half_window) and hi = min (m - 1) (i + half_window) in
        let w = Array.sub times lo (hi - lo + 1) in
        Array.sort compare w;
        float_of_int w.(Array.length w / 2))
  in
  let i = ref 0 in
  Array.init (Out.Sample.count steps) (fun j ->
      while !i < m - 1 && t.at.Out.Sample.a.(!i) < j + 1 do
        incr i
      done;
      float_of_int steps.Out.Sample.a.(j) /. smooth.(!i))

(* Nearest-rank percentile of a float array, [p] in (0, 100]. *)
let percentile (v : float array) p =
  let n = Array.length v in
  if n = 0 then 0.
  else begin
    let b = Array.copy v in
    Array.sort Float.compare b;
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    b.(max 0 (min (n - 1) k))
  end
