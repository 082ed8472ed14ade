type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
}

let create ~cmp = { cmp; data = [||]; len = 0 }

let size h = h.len

let is_empty h = h.len = 0

let grow h x =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nd = Array.make ncap x in
    Array.blit h.data 0 nd 0 h.len;
    h.data <- nd
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && h.cmp h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.len && h.cmp h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.len) <- x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let peek h = if h.len = 0 then None else Some h.data.(0)

let pop_exn h =
  if h.len = 0 then invalid_arg "Heap.pop_exn: empty heap"
  else begin
    let top = h.data.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.data.(0) <- h.data.(h.len);
      sift_down h 0
    end;
    top
  end

let pop h = if h.len = 0 then None else Some (pop_exn h)

let to_sorted_list h =
  let copy = { cmp = h.cmp; data = Array.sub h.data 0 h.len; len = h.len } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []
