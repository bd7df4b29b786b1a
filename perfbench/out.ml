(* Samples, metric values and correctness checks collected by one run. *)

module Sample = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0 in
    for i = 0 to t.n - 1 do
      s := !s + t.a.(i)
    done;
    !s

  (* Nearest-rank percentile, [p] in (0, 100]. *)
  let percentile t p =
    if t.n = 0 then 0
    else begin
      let b = Array.sub t.a 0 t.n in
      Array.sort compare b;
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) - 1 in
      b.(max 0 (min (t.n - 1) k))
    end

  let mean t = if t.n = 0 then 0. else float_of_int (sum t) /. float_of_int t.n
end

type t = {
  values : (string, float) Hashtbl.t;
  samples : (string, int) Hashtbl.t;  (* sample count behind a value *)
  mutable attempted : int;
  mutable failed : int;
  mutable broken : string list;  (* failed correctness checks, newest first *)
}

let create () =
  {
    values = Hashtbl.create 64;
    samples = Hashtbl.create 16;
    attempted = 0;
    failed = 0;
    broken = [];
  }

let set t ?samples name v =
  Hashtbl.replace t.values name v;
  Option.iter (Hashtbl.replace t.samples name) samples

let get t name = Option.value ~default:0. (Hashtbl.find_opt t.values name)
let samples t name = Hashtbl.find_opt t.samples name

(* Record a correctness check; a failed one makes the run incorrect. *)
let check t ok what = if not ok then t.broken <- what :: t.broken

let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.
