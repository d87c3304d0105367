(* Chained buckets, as in [Hashtbl], so a binding costs the same four
   words; keys compare as ints, and the table size is a power of two. *)
type 'a bucket = Empty | Cons of { key : int; data : 'a; mutable next : 'a bucket }
type 'a t = { mutable size : int; mutable data : 'a bucket array }

let create n =
  let rec pow k = if k >= n then k else pow (2 * k) in
  { size = 0; data = Array.make (pow 16) Empty }

(* Ids may agree in their low bits (a strided numbering), so the key is
   mixed before its low bits pick the bucket. *)
let index t key =
  let h = key * 0x9E3779B1 in
  (h lxor (h lsr 32)) land (Array.length t.data - 1)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

let find t key = find_in key t.data.(index t key)

let rec mem_in key = function Empty -> false | Cons c -> c.key = key || mem_in key c.next

(* Double the bucket array once bindings outnumber buckets twice over,
   relinking the existing cells: a resize allocates only the new array. *)
let resize t =
  let old = t.data in
  t.data <- Array.make (2 * Array.length old) Empty;
  let rec relink = function
    | Empty -> ()
    | Cons c as cell ->
      let next = c.next and i = index t c.key in
      c.next <- t.data.(i);
      t.data.(i) <- cell;
      relink next
  in
  Array.iter relink old

let add t key data =
  let i = index t key in
  (not (mem_in key t.data.(i)))
  && begin
       t.data.(i) <- Cons { key; data; next = t.data.(i) };
       t.size <- t.size + 1;
       if t.size > 2 * Array.length t.data then resize t;
       true
     end

(* Top-level rather than a closure over [t] and [key]: a removal
   allocates nothing. *)
let rec unlink t key prev = function
  | Empty -> ()
  | Cons c as cell when c.key <> key -> unlink t key cell c.next
  | Cons c -> (
    t.size <- t.size - 1;
    match prev with Empty -> t.data.(index t key) <- c.next | Cons p -> p.next <- c.next)

let remove t key = unlink t key Empty t.data.(index t key)
