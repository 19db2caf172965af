type task = unit -> unit

type t = {
  mutable domains : unit Domain.t array;
  queue : task Queue.t;
  mutex : Mutex.t;
  has_work : Condition.t;
  mutable closed : bool;
}

let worker_loop t =
  let rec next () =
    Mutex.lock t.mutex;
    let rec wait () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.closed then None
      else begin
        Condition.wait t.has_work t.mutex;
        wait ()
      end
    in
    let job = wait () in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some task ->
        task ();
        next ()
  in
  next ()

let create ?num_domains () =
  let n =
    match num_domains with
    | Some n ->
        if n < 0 then invalid_arg "Pool.create: negative domain count";
        n
    | None -> Stdlib.max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      domains = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      has_work = Condition.create ();
      closed = false;
    }
  in
  t.domains <- Array.init n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = Array.length t.domains + 1

let submit t task =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: submit after shutdown"
  end;
  Queue.push task t.queue;
  Condition.signal t.has_work;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  let was_closed = t.closed in
  t.closed <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  if not was_closed then Array.iter Domain.join t.domains

let with_pool ?num_domains f =
  let t = create ?num_domains () in
  match f t with
  | result ->
      shutdown t;
      result
  | exception e ->
      shutdown t;
      raise e

(* ---- futures ---- *)

type 'a future_state = Pending | Done of 'a | Failed of exn

type 'a future = {
  f_mutex : Mutex.t;
  f_ready : Condition.t;
  mutable f_state : 'a future_state;
}

let async t f =
  let fut = { f_mutex = Mutex.create (); f_ready = Condition.create (); f_state = Pending } in
  let run () =
    let result = match f () with v -> Done v | exception e -> Failed e in
    Mutex.lock fut.f_mutex;
    fut.f_state <- result;
    Condition.broadcast fut.f_ready;
    Mutex.unlock fut.f_mutex
  in
  (* With no worker domains nothing would ever drain the queue, so the
     task runs inline here and the future is born completed. *)
  if Array.length t.domains = 0 then run () else submit t run;
  fut

let await fut =
  Mutex.lock fut.f_mutex;
  let rec wait () =
    match fut.f_state with
    | Pending ->
        Condition.wait fut.f_ready fut.f_mutex;
        wait ()
    | state -> state
  in
  let state = wait () in
  Mutex.unlock fut.f_mutex;
  match state with Done v -> v | Failed e -> raise e | Pending -> assert false

type schedule = Static | Dynamic of int | Guided

(* Run [work participant_id] on every participant (workers plus the
   caller as participant 0) and wait for all of them. Worker
   exceptions are collected and the first one re-raised on the
   caller. *)
let run_on_all t work =
  let helpers = Array.length t.domains in
  let pending = ref helpers in
  let failure = ref None in
  let done_mutex = Mutex.create () in
  let all_done = Condition.create () in
  for w = 1 to helpers do
    submit t (fun () ->
        (try work w
         with e ->
           Mutex.lock done_mutex;
           if !failure = None then failure := Some e;
           Mutex.unlock done_mutex);
        Mutex.lock done_mutex;
        decr pending;
        if !pending = 0 then Condition.broadcast all_done;
        Mutex.unlock done_mutex)
  done;
  work 0;
  Mutex.lock done_mutex;
  while !pending > 0 do
    Condition.wait all_done done_mutex
  done;
  let failure = !failure in
  Mutex.unlock done_mutex;
  match failure with None -> () | Some e -> raise e

(* Iteration dispenser for Dynamic/Guided schedules. *)
let make_dispenser ~lo ~hi ~participants = function
  | Static ->
      (* Contiguous blocks assigned up front; participant w takes
         block w. *)
      let n = hi - lo in
      let block = (n + participants - 1) / participants in
      fun w ->
        let b_lo = lo + (w * block) in
        let b_hi = Stdlib.min hi (b_lo + block) in
        if b_lo >= hi then (fun () -> None)
        else begin
          let given = ref false in
          fun () ->
            if !given then None
            else begin
              given := true;
              Some (b_lo, b_hi)
            end
        end
  | Dynamic chunk ->
      if chunk < 1 then invalid_arg "Pool: Dynamic chunk must be at least 1";
      let next = Atomic.make lo in
      fun _ () ->
        let start = Atomic.fetch_and_add next chunk in
        if start >= hi then None else Some (start, Stdlib.min hi (start + chunk))
  | Guided ->
      let next = Atomic.make lo in
      let rec grab () =
        let cur = Atomic.get next in
        if cur >= hi then None
        else begin
          let remaining = hi - cur in
          let size = Stdlib.max 1 (remaining / (2 * participants)) in
          if Atomic.compare_and_set next cur (cur + size) then Some (cur, cur + size) else grab ()
        end
      in
      fun _ () -> grab ()

let parallel_for t ?(schedule = Static) ~lo ~hi f =
  if hi > lo then begin
    let dispenser = make_dispenser ~lo ~hi ~participants:(size t) schedule in
    run_on_all t (fun w ->
        let grab = dispenser w in
        let rec drain () =
          match grab () with
          | None -> ()
          | Some (c_lo, c_hi) ->
              for i = c_lo to c_hi - 1 do
                f i
              done;
              drain ()
        in
        drain ())
  end

let map_array_result t ?schedule f xs =
  let g x = match f x with y -> Stdlib.Ok y | exception e -> Stdlib.Error e in
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n (g xs.(0)) in
    parallel_for t ?schedule ~lo:1 ~hi:n (fun i -> out.(i) <- g xs.(i));
    out
  end
