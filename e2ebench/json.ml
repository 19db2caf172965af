(* Minimal JSON: a reader for BENCHMARK.json and the run records that
   --compare reads back, and the few writers the run records need. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "JSON: %s at byte %d" msg !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "unknown literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* non-ASCII escapes never occur in the files read here *)
              pos := !pos + 4;
              Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let get key json =
  match member key json with Some v -> v | None -> failwith ("JSON: missing key " ^ key)

let to_string = function Str s -> s | _ -> failwith "JSON: expected a string"
let to_float = function Num f -> f | _ -> failwith "JSON: expected a number"
let to_list = function Arr l -> l | _ -> failwith "JSON: expected an array"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Writing: the few value shapes the benchmark emits. *)
let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let number f = Printf.sprintf "%.17g" f
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) fields) ^ "}"
