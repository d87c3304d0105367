(* Linear probing over a power-of-two array kept at most half full, so
   every probe run ends at a free cell. [empty] marks a free cell; the one
   id equal to it is held aside, in [aside]. *)
let empty = min_int

type t = {
  mutable keys : int array;
  mutable size : int;  (* ids in [keys] *)
  mutable aside : bool;
}

let create n =
  let rec pow k = if k >= 2 * n then k else pow (2 * k) in
  { keys = Array.make (pow 16) empty; size = 0; aside = false }

(* Ids may agree in their low bits (a strided numbering), so the key is
   mixed before its low bits pick the home cell. *)
let home keys key =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 32)) land (Array.length keys - 1)

(* The cell holding [key], or the free cell that ends its probe run. *)
let rec probe keys key i =
  let k = keys.(i) in
  if k = key || k = empty then i else probe keys key ((i + 1) land (Array.length keys - 1))

(* Double the array and re-probe every id: only a resize allocates. *)
let resize t =
  let keys = t.keys in
  t.keys <- Array.make (2 * Array.length keys) empty;
  for j = 0 to Array.length keys - 1 do
    let k = keys.(j) in
    if k <> empty then t.keys.(probe t.keys k (home t.keys k)) <- k
  done

let add t key =
  if key = empty then
    (not t.aside)
    && begin
         t.aside <- true;
         true
       end
  else begin
    let i = probe t.keys key (home t.keys key) in
    t.keys.(i) = empty
    && begin
         t.keys.(i) <- key;
         t.size <- t.size + 1;
         if 2 * t.size > Array.length t.keys then resize t;
         true
       end
  end

(* Backward-shift deletion: walk the run after the [hole] and move back
   each entry whose home is not cyclically after the hole (its distance
   from home is at least its distance from the hole), leaving the hole at
   the moved entry's cell; the free cell that ends the run ends the walk.
   No tombstones, so lookups never slow down with deletions. *)
let rec shift keys hole j =
  let mask = Array.length keys - 1 in
  let k = keys.(j) in
  if k = empty then keys.(hole) <- empty
  else if (j - home keys k) land mask >= (j - hole) land mask then begin
    keys.(hole) <- k;
    shift keys j ((j + 1) land mask)
  end
  else shift keys hole ((j + 1) land mask)

let remove t key =
  if key = empty then t.aside <- false
  else begin
    let i = probe t.keys key (home t.keys key) in
    if t.keys.(i) <> empty then begin
      t.size <- t.size - 1;
      shift t.keys i ((i + 1) land (Array.length t.keys - 1))
    end
  end
