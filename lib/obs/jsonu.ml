(* Minimal self-contained JSON: a value type, a writer, a
   recursive-descent parser and string escaping. Exists so the
   observability layer (JSONL traces, heartbeat rows, Chrome exports,
   `resa explain`) stays free of third-party dependencies; it is not a
   general-purpose JSON library — numbers are floats, and the parser
   accepts exactly the documents this repository emits (strict RFC 8259
   core: no comments, no trailing commas).

   The writer is on the path of every trace line and heartbeat row, so it
   formats without [Printf]: integral numbers are written digit by digit
   into the output buffer, strings and keys are escaped straight into it,
   and a string with nothing to escape is copied as is. The buffer is one
   per domain, reused by every line. Its bytes are those
   of the [Printf "%.0f"] / ["%.6g"] formulas it replaces. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- writer ------------------------------------------------------------ *)

(* Bytes that must be escaped inside a JSON string. Non-ASCII bytes pass
   through untouched: strings are written as the bytes they hold. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* No byte of [s] from [i] on needs escaping. A toplevel loop rather than
   [String.exists], whose local closure would cost words on every key. *)
let rec clean s i = i >= String.length s || ((not (needs_escape s.[i])) && clean s (i + 1))

let add_escaped b s =
  if clean s 0 then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b "\\u00";
          Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char b "0123456789abcdef".[Char.code c land 15]
        | c -> Buffer.add_char b c)
      s

let escape s =
  if clean s 0 then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b
  end

(* Decimal digits of [n > 0], most significant first. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* The primitive behind [Printf]'s float conversions. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral numbers below 1e15 in magnitude are exact ints: their digits
   go straight into the buffer, with the bytes of [Printf "%.0f"] ("-0"
   for [-0.0] included) but none of its formatting machinery. Anything
   else prints as [Printf "%.6g"] would, through the same primitive. *)
let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char b '-';
    let n = int_of_float (Float.abs f) in
    if n = 0 then Buffer.add_char b '0' else add_digits b n
  end
  else Buffer.add_string b (format_float "%.6g" f)

let add_str b s =
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> add_num b f
  | Str s -> add_str b s
  | List vs ->
    Buffer.add_char b '[';
    write_items b 0 vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    write_members b 0 kvs;
    Buffer.add_char b '}'

(* Element [i] onward of a list or an object, comma-separated: plain
   recursion, so no closure is built per container. *)
and write_items b i = function
  | [] -> ()
  | v :: vs ->
    if i > 0 then Buffer.add_char b ',';
    write b v;
    write_items b (i + 1) vs

and write_members b i = function
  | [] -> ()
  | (k, v) :: kvs ->
    if i > 0 then Buffer.add_char b ',';
    add_str b k;
    Buffer.add_char b ':';
    write b v;
    write_members b (i + 1) kvs

(* One output buffer per domain, reused by every rendering: each trace
   line and heartbeat row would otherwise create and drop a 256-byte
   buffer. Replays run on several domains at once, so the buffer is
   domain-local. A rendering that grew it past 64 KiB (a Chrome export)
   hands that memory back. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

let render v =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  write b v;
  b

let release b = if Buffer.length b > 65536 then Buffer.reset b

let to_string v =
  let b = render v in
  let s = Buffer.contents b in
  release b;
  s

let output oc v =
  let b = render v in
  Buffer.output_buffer oc b;
  release b

(* --- parser ------------------------------------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None

let skip_ws c =
  while
    c.i < String.length c.s
    && match c.s.[c.i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.i <- c.i + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.i <- c.i + 1
  | Some x -> parse_error "expected %c at %d, got %c" ch c.i x
  | None -> parse_error "expected %c at %d, got end of input" ch c.i

let literal c word v =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    v
  end
  else parse_error "bad literal at %d" c.i

let parse_string_body c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' -> c.i <- c.i + 1
    | Some '\\' -> (
      c.i <- c.i + 1;
      match peek c with
      | None -> parse_error "unterminated escape"
      | Some ch ->
        c.i <- c.i + 1;
        (match ch with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if c.i + 4 > String.length c.s then parse_error "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub c.s c.i 4) in
          c.i <- c.i + 4;
          (* Only the codepoints we ever emit (< 0x80) round-trip exactly;
             anything else degrades to '?' rather than UTF-8 encoding. *)
          if code < 0x80 then Buffer.add_char b (Char.chr code) else Buffer.add_char b '?'
        | ch -> parse_error "bad escape \\%c" ch);
        go ())
    | Some ch ->
      c.i <- c.i + 1;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.i in
  let numchar ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.i < String.length c.s && numchar c.s.[c.i] do
    c.i <- c.i + 1
  done;
  match float_of_string_opt (String.sub c.s start (c.i - start)) with
  | Some f -> Num f
  | None -> parse_error "bad number at %d" start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some '[' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.i <- c.i + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          items (v :: acc)
        | Some ']' ->
          c.i <- c.i + 1;
          List.rev (v :: acc)
        | _ -> parse_error "expected , or ] at %d" c.i
      in
      List (items [])
    end
  | Some '{' ->
    c.i <- c.i + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.i <- c.i + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.i <- c.i + 1;
          members ((k, v) :: acc)
        | Some '}' ->
          c.i <- c.i + 1;
          List.rev ((k, v) :: acc)
        | _ -> parse_error "expected , or } at %d" c.i
      in
      Obj (members [])
    end
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> parse_error "unexpected %c at %d" ch c.i

let of_string s =
  let c = { s; i = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.i <> String.length s then Error (Printf.sprintf "trailing input at %d" c.i)
    else Ok v
  | exception Parse_error m -> Error m

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_int = function Num f when Float.is_integer f -> Some (int_of_float f) | _ -> None

let to_str = function Str s -> Some s | _ -> None
