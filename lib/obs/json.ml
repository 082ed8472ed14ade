type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Json values are immutable, so the small non-negative ints that make up
   most of a dump (hist bins, counts, ids) can share one node each. *)
let num_cache = 1024

let small_nums = Array.init num_cache (fun i -> Num (float_of_int i))

let num_of_int i =
  if i >= 0 && i < num_cache then Array.unsafe_get small_nums i
  else Num (float_of_int i)

(* Elements [0 .. i] consed onto [acc], back to front. *)
let rec cons_ints a i acc =
  if i < 0 then acc
  else cons_ints a (i - 1) (num_of_int (Array.unsafe_get a i) :: acc)

let rec cons_floats a i acc =
  if i < 0 then acc else cons_floats a (i - 1) (Num (Array.unsafe_get a i) :: acc)

let of_int_array a = Arr (cons_ints a (Array.length a - 1) [])

let of_float_array a = Arr (cons_floats a (Array.length a - 1) [])

(* ---------- writing ---------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else
    (* %.17g round-trips every binary64, so a replayed trace sees the very
       bits the run produced. *)
    Buffer.add_string buf (Printf.sprintf "%.17g" f)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        write buf v)
      l;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse of string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
        let hex = String.sub c.s c.pos 4 in
        c.pos <- c.pos + 4;
        (match int_of_string_opt ("0x" ^ hex) with
        | None -> fail c "bad \\u escape"
        | Some code ->
          (* Only the codes our writer emits (< 0x80) appear in traces;
             others are replaced to keep the parser total. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?');
        go ()
      | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    match peek c with Some ch when is_num_char ch -> true | _ -> false
  do
    advance c
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some f -> Num f
  | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        expect c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected , or }"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected , or ]"
      in
      Arr (elements [])
    end
  | Some '"' ->
    advance c;
    Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing characters"
    else Ok v
  | exception Parse msg -> Error msg

(* ---------- accessors ---------- *)

(* First match wins, as in [List.assoc_opt], without its polymorphic
   compare on every probe. *)
let rec assoc_str k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc_str k rest

let member k = function Obj l -> assoc_str k l | _ -> None

let to_float = function Num f -> Some f | _ -> None

(* [Float.is_integer], without its C call for every value an int can
   hold: below 2^62 in magnitude the truncation is exact. *)
let is_integer f =
  if Float.abs f < 4.6e18 then Float.of_int (int_of_float f) = f
  else Float.is_integer f

let to_int = function
  | Num f when is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function Arr l -> Some l | _ -> None

let rec fill_floats a i = function
  | [] -> true
  | Num f :: rest ->
    Array.unsafe_set a i f;
    fill_floats a (i + 1) rest
  | _ -> false

let float_array = function
  | Arr l ->
    let a = Array.make (List.length l) 0. in
    if fill_floats a 0 l then Some a else None
  | _ -> None

let rec fill_ints a i = function
  | [] -> true
  | Num f :: rest when is_integer f ->
    Array.unsafe_set a i (int_of_float f);
    fill_ints a (i + 1) rest
  | _ -> false

let int_array = function
  | Arr l ->
    let a = Array.make (List.length l) 0 in
    if fill_ints a 0 l then Some a else None
  | _ -> None
