(* Wall-clock spans the benchmark records around its own calls into each
   layer, plus the OCaml runtime's GC phases read back through
   [Runtime_events]. Spans stay in memory and are written out when the run
   ends; a disabled tracer records nothing and costs one branch per call.

   Self time: a span's duration minus what its child spans cover. GC
   phases count as children of the span they ran in. The GC cursor is
   polled at the boundaries of ordinary spans; a phase read at a poll ran
   either inside one of the leaf spans closed since the previous poll
   ([enter_leaf], for spans too short and too many to poll around, such
   as engine events: it is matched to them by time) or else inside the
   span that was innermost since the previous poll. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Layers, named after the repository's modules. [bench] is the
   benchmark's own code between layer calls (the roots of every span
   tree: one set-up, batch or epoch). *)
let plane = 0
let traffic_gen = 1
let engine = 2
let telemetry = 3
let model = 4
let dp_routing = 5
let system = 6
let compile = 7
let bus = 8
let gc = 9
let bench = 10

let layer_names =
  [| "plane"; "traffic_gen"; "engine"; "telemetry"; "model"; "dp_routing";
     "system"; "compile"; "bus"; "gc"; "bench" |]

let num_layers = Array.length layer_names

(* Spans kept for the trace file; beyond this the self-time accounting
   goes on but no further span is stored. *)
let max_stored = 1 lsl 18
let max_depth = 16

type t = {
  enabled : bool;  (* a tracing run: runtime events started *)
  mutable active : bool;  (* spans are being recorded now *)
  t0 : int;
  (* stored spans, parallel arrays *)
  mutable n : int;
  mutable s_name : int array;
  mutable s_parent : int array;
  mutable s_group : int array;
  mutable s_start : int array;
  mutable s_stop : int array;
  mutable dropped : int;
  (* open spans *)
  mutable depth : int;
  o_layer : int array;
  o_start : int array;
  o_child : int array;  (* ns covered by children and GC *)
  o_index : int array;  (* stored span index, or -1 *)
  mutable group : int;
  mutable in_step : bool;  (* the open root is a measured step *)
  (* self time of spans under measured-step roots, per layer *)
  self_ns : int array;
  (* the open leaf span, and the leaf spans closed since the last poll *)
  mutable leaf_start : int;
  mutable leaf_index : int;
  mutable nleaf : int;
  l_start : int array;
  l_stop : int array;
  l_layer : int array;
  l_index : int array;
  (* GC phases read at a poll: absolute start, duration *)
  cursor : Runtime_events.cursor option;
  mutable gc_depth : int;
  mutable gc_begin : int;
  mutable ngc : int;
  g_start : int array;
  g_dur : int array;
  mutable callbacks : Runtime_events.Callbacks.t option;
}

let max_leaves = 1 lsl 16
let max_gc = 1 lsl 12

let store t name parent start stop =
  if t.n >= max_stored then (t.dropped <- t.dropped + 1; -1)
  else begin
    if t.n >= Array.length t.s_name then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.s_name <- grow t.s_name;
      t.s_parent <- grow t.s_parent;
      t.s_group <- grow t.s_group;
      t.s_start <- grow t.s_start;
      t.s_stop <- grow t.s_stop
    end;
    let i = t.n in
    t.s_name.(i) <- name;
    t.s_parent.(i) <- parent;
    t.s_group.(i) <- t.group;
    t.s_start.(i) <- start;
    t.s_stop.(i) <- stop;
    t.n <- i + 1;
    i
  end

let create enabled =
  let cursor, t0 =
    if enabled then begin
      Runtime_events.start ();
      (Some (Runtime_events.create_cursor None), now ())
    end
    else (None, 0)
  in
  let cap = if enabled then 4096 else 0 in
  {
    enabled;
    active = enabled;
    t0;
    n = 0;
    s_name = Array.make cap 0;
    s_parent = Array.make cap 0;
    s_group = Array.make cap 0;
    s_start = Array.make cap 0;
    s_stop = Array.make cap 0;
    dropped = 0;
    depth = 0;
    o_layer = Array.make max_depth 0;
    o_start = Array.make max_depth 0;
    o_child = Array.make max_depth 0;
    o_index = Array.make max_depth (-1);
    group = -1;
    in_step = false;
    self_ns = Array.make num_layers 0;
    leaf_start = 0;
    leaf_index = -1;
    nleaf = 0;
    l_start = Array.make (if enabled then max_leaves else 0) 0;
    l_stop = Array.make (if enabled then max_leaves else 0) 0;
    l_layer = Array.make (if enabled then max_leaves else 0) 0;
    l_index = Array.make (if enabled then max_leaves else 0) 0;
    cursor;
    gc_depth = 0;
    gc_begin = 0;
    ngc = 0;
    g_start = Array.make max_gc 0;
    g_dur = Array.make max_gc 0;
    callbacks = None;
  }

(* Top-level GC phases only: nested phases (the parts of one minor
   collection or major slice) are covered by their outermost phase. *)
let callbacks t =
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  let runtime_begin _dom x _phase =
    if t.gc_depth = 0 then t.gc_begin <- ts x;
    t.gc_depth <- t.gc_depth + 1
  in
  let runtime_end _dom x _phase =
    if t.gc_depth > 0 then begin
      t.gc_depth <- t.gc_depth - 1;
      if t.gc_depth = 0 then begin
        let stop = ts x in
        if t.ngc < max_gc then begin
          t.g_start.(t.ngc) <- t.gc_begin;
          t.g_dur.(t.ngc) <- stop - t.gc_begin;
          t.ngc <- t.ngc + 1
        end
        else
          (* more phases than one poll keeps: fold into the last *)
          t.g_dur.(max_gc - 1) <- t.g_dur.(max_gc - 1) + (stop - t.gc_begin)
      end
    end
  in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ()

(* The leaf span (closed since the last poll) that a GC phase starting at
   [at] ran in, or -1. Leaves are closed in time order. *)
let leaf_at t at =
  let lo = ref 0 and hi = ref (t.nleaf - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if at < t.l_start.(mid) then hi := mid - 1
    else if at >= t.l_stop.(mid) then lo := mid + 1
    else begin
      found := mid;
      lo := !hi + 1
    end
  done;
  !found

(* Read the GC phases that ended since the last poll and charge each to
   the span it ran in, storing it as a "gc" span under that span. *)
let poll t =
  match t.cursor with
  | None -> ()
  | Some c ->
    let cb =
      match t.callbacks with
      | Some cb -> cb
      | None ->
        let cb = callbacks t in
        t.callbacks <- Some cb;
        cb
    in
    ignore (Runtime_events.read_poll c cb None);
    for k = 0 to t.ngc - 1 do
      let start = t.g_start.(k) and d = t.g_dur.(k) in
      let leaf = leaf_at t start in
      if leaf >= 0 then begin
        (* the leaf's self time was taken with the phase inside it *)
        let l = t.l_layer.(leaf) in
        if t.in_step then begin
          t.self_ns.(l) <- t.self_ns.(l) - d;
          t.self_ns.(gc) <- t.self_ns.(gc) + d
        end;
        ignore (store t gc t.l_index.(leaf) (start - t.t0) (start + d - t.t0))
      end
      else if t.depth > 0 then begin
        let top = t.depth - 1 in
        t.o_child.(top) <- t.o_child.(top) + d;
        if t.in_step then t.self_ns.(gc) <- t.self_ns.(gc) + d;
        ignore (store t gc t.o_index.(top) (start - t.t0) (start + d - t.t0))
      end
    done;
    t.ngc <- 0;
    t.nleaf <- 0

let enter t layer =
  if t.active then begin
    poll t;
    let i = t.depth in
    let parent = if i > 0 then t.o_index.(i - 1) else -1 in
    let start = now () in
    t.o_layer.(i) <- layer;
    t.o_child.(i) <- 0;
    t.o_index.(i) <- store t layer parent (start - t.t0) (start - t.t0);
    t.depth <- i + 1;
    t.o_start.(i) <- start
  end

(* A root span: one set-up ([step = false]) or one measured batch or epoch
   ([step = true]); its descendants share its group id. [same_group]
   continues the previous root's group: an epoch whose timed part is split
   in two. *)
let enter_root ?(same_group = false) t ~step =
  if t.active then begin
    if not same_group then t.group <- t.group + 1;
    t.in_step <- step;
    enter t bench
  end

(* Close the innermost span, charging it to [layer] (the layer given at
   [enter] unless overridden: an engine event's layer is known only once
   it has run). *)
let leave_as t layer =
  if t.active && t.depth > 0 then begin
    let stop = now () in
    poll t;
    let i = t.depth - 1 in
    let start = t.o_start.(i) in
    let dur = stop - start in
    let idx = t.o_index.(i) in
    if idx >= 0 then begin
      t.s_name.(idx) <- layer;
      t.s_stop.(idx) <- stop - t.t0
    end;
    if t.in_step then
      t.self_ns.(layer) <- t.self_ns.(layer) + max 0 (dur - t.o_child.(i));
    t.depth <- i;
    if i > 0 then t.o_child.(i - 1) <- t.o_child.(i - 1) + dur
    else t.in_step <- false
  end

let leave t = if t.active && t.depth > 0 then leave_as t t.o_layer.(t.depth - 1)

(* A leaf span, opened inside an ordinary one and with no spans of its
   own: nothing is polled around it. *)
let enter_leaf t =
  if t.active && t.depth > 0 then begin
    let start = now () in
    t.leaf_start <- start;
    t.leaf_index <- store t bench t.o_index.(t.depth - 1) (start - t.t0) (start - t.t0)
  end

let leave_leaf_as t layer =
  if t.active && t.depth > 0 then begin
    let stop = now () in
    let start = t.leaf_start and idx = t.leaf_index in
    if idx >= 0 then begin
      t.s_name.(idx) <- layer;
      t.s_stop.(idx) <- stop - t.t0
    end;
    if t.nleaf = max_leaves then poll t;
    let k = t.nleaf in
    t.l_start.(k) <- start;
    t.l_stop.(k) <- stop;
    t.l_layer.(k) <- layer;
    t.l_index.(k) <- idx;
    t.nleaf <- k + 1;
    let dur = stop - start in
    if t.in_step then t.self_ns.(layer) <- t.self_ns.(layer) + dur;
    let top = t.depth - 1 in
    t.o_child.(top) <- t.o_child.(top) + dur
  end

(* A tracing run alternates traced and untraced stretches of steps, so the
   difference between the two is the tracing overhead. Runtime events are
   paused in the untraced stretches, so that the overhead covers them
   too. Switch only between root spans. GC phases left unread when a
   stretch ends are dropped. *)
let set_active t on =
  if t.enabled && on <> t.active && t.depth = 0 then begin
    if on then begin
      Runtime_events.resume ();
      poll t;
      t.gc_depth <- 0
    end
    else Runtime_events.pause ();
    t.active <- on
  end

let self_ns t layer = t.self_ns.(layer)
let enabled t = t.enabled
let active t = t.active

(* Write every stored span as one JSON line: id, layer name, parent id
   (-1 for a root), group id (shared by one set-up, batch or epoch), start
   and end in ns since the tracer was created. *)
let write t path =
  if t.enabled then begin
    let oc = open_out path in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"group\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        i layer_names.(t.s_name.(i)) t.s_parent.(i) t.s_group.(i) t.s_start.(i)
        t.s_stop.(i)
    done;
    close_out oc
  end

let stored t = t.n
let dropped t = t.dropped
