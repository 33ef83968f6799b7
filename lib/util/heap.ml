type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable items : 'a array;
  dummy : 'a;
  mutable len : int;
  mutable seq : int;  (* the next push's sequence number *)
}

let create ~dummy =
  { times = Array.make 64 0.0; seqs = Array.make 64 0; items = Array.make 64 dummy; dummy; len = 0; seq = 0 }

let is_empty h = h.len = 0

let grow h =
  let cap = 2 * Array.length h.times in
  let extend arr fill =
    let arr' = Array.make cap fill in
    Array.blit arr 0 arr' 0 h.len;
    arr'
  in
  h.times <- extend h.times 0.0;
  h.seqs <- extend h.seqs 0;
  h.items <- extend h.items h.dummy

(* slot [i] sorts before slot [j] *)
let lt h i j = h.times.(i) < h.times.(j) || (h.times.(i) = h.times.(j) && h.seqs.(i) < h.seqs.(j))

let move h ~src ~dst =
  h.times.(dst) <- h.times.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.items.(dst) <- h.items.(src)

(* Both sifts move a hole instead of swapping, and compare against the
   entry being placed through local unboxed copies of its keys. *)
let push h time x =
  if h.len = Array.length h.times then grow h;
  let seq = h.seq in
  h.seq <- seq + 1;
  let i = ref h.len in
  h.len <- h.len + 1;
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    time < h.times.(p) || (time = h.times.(p) && seq < h.seqs.(p))
  do
    let p = (!i - 1) / 2 in
    move h ~src:p ~dst:!i;
    i := p
  done;
  h.times.(!i) <- time;
  h.seqs.(!i) <- seq;
  h.items.(!i) <- x

let min_time h =
  if h.len = 0 then invalid_arg "Heap.min_time: empty heap";
  h.times.(0)

let pop h =
  if h.len = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.items.(0) in
  let last = h.len - 1 in
  h.len <- last;
  let time = h.times.(last) and seq = h.seqs.(last) and x = h.items.(last) in
  h.items.(last) <- h.dummy;
  if last > 0 then begin
    (* sift the root hole down, then drop the former last entry in it *)
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < last && lt h (l + 1) l then l + 1 else l in
      if c < last && (h.times.(c) < time || (h.times.(c) = time && h.seqs.(c) < seq)) then begin
        move h ~src:c ~dst:!i;
        i := c
      end
      else continue := false
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.items.(!i) <- x
  end;
  top
