type options = { threshold : float; hysteresis : int; smoothing : float; min_obs : int }

let default_options = { threshold = 0.7; hysteresis = 2; smoothing = 0.5; min_obs = 25 }

let validate_options o =
  if not (Float.is_finite o.threshold) || o.threshold <= 0. || o.threshold >= 1. then
    invalid_arg "Gate: threshold must be in (0, 1)";
  if o.hysteresis < 1 then invalid_arg "Gate: hysteresis must be at least 1";
  if not (Float.is_finite o.smoothing) || o.smoothing <= 0. || o.smoothing > 1. then
    invalid_arg "Gate: smoothing must be in (0, 1]";
  if o.min_obs < 1 then invalid_arg "Gate: min_obs must be at least 1"

type status = Active | Attenuated | Dropped

let status_to_string = function
  | Active -> "active"
  | Attenuated -> "attenuated"
  | Dropped -> "dropped"

type action = Attenuate | Restore | Drop | Fallback

let action_to_string = function
  | Attenuate -> "attenuate"
  | Restore -> "restore"
  | Drop -> "drop"
  | Fallback -> "fallback"

type snapshot = {
  s_refit : int;
  s_source : int;
  s_agreement : float;
  s_trust : float;
  s_weight : float;
  s_status : status;
}

type decision = {
  d_refit : int;
  d_source : int;  (* -1 for the pooled-prior fallback *)
  d_action : action;
  d_trust : float;
  d_below : int;
}

type source_state = { mutable trust : float; mutable below : int; mutable dropped : bool }

type t = {
  options : options;
  sources : source_state array;
  mutable n_updates : int;  (* trust-update ordinal: refits past min_obs *)
}

let create ~options ~n_sources =
  validate_options options;
  if n_sources < 1 then invalid_arg "Gate.create: n_sources must be at least 1";
  {
    options;
    sources = Array.init n_sources (fun _ -> { trust = 1.; below = 0; dropped = false });
    n_updates = 0;
  }

let n_updates t = t.n_updates
let trust t i = t.sources.(i).trust
let dropped t i = t.sources.(i).dropped
let all_dropped t = Array.for_all (fun s -> s.dropped) t.sources

(* Agreement of one source prior with the unbiased target evidence:
   the Spearman rank correlation between the prior's log-density-ratio
   score of each anchor configuration and that configuration's merit
   (the negated observed objective), clipped to [0, 1]. A source that
   ranks the target's random-init sample the way the objective does
   scores near 1; an uninformative source (constant or uncorrelated
   scores) earns 0, and so does an anti-correlated one — both are
   priors the campaign is better off without.

   The anchor set must be the {e unbiased} (randomly drawn)
   observations only. Prior-guided evaluations are concentrated where
   the prior already scores well, so any statistic over them confirms
   the prior that produced them — a harmful prior looks exactly as
   good as a helpful one. The random-init block is the one sample the
   prior did not choose. *)
let agreement source anchor =
  if Array.length anchor < 2 then 0.
  else begin
    let scores = Array.map (fun (c, _) -> Surrogate.score source c) anchor in
    let merits = Array.map (fun (_, y) -> -.y) anchor in
    Stdlib.max 0. (Stats.Correlation.spearman scores merits)
  end

(* Below this many anchors the rank statistic is meaningless noise;
   the gate stays inert rather than judging sources on it. *)
let min_anchor = 4

type step = {
  step_priors : (Surrogate.t * float) list;
  step_snapshots : snapshot list;
  step_decisions : decision list;
}

let status_of st = if st.dropped then Dropped else if st.below > 0 then Attenuated else Active

let apply t ~anchor ~n_obs priors =
  if List.length priors <> Array.length t.sources then
    invalid_arg "Gate.apply: prior count does not match the gate's source count";
  if n_obs < t.options.min_obs || Array.length anchor < min_anchor then
    (* Not enough target evidence to judge the sources: pass the
       priors through untouched and leave the trust state alone, so a
       campaign below [min_obs] is bit-identical to an ungated one. *)
    { step_priors = priors; step_snapshots = []; step_decisions = [] }
  else begin
    let refit = t.n_updates in
    t.n_updates <- t.n_updates + 1;
    let was_all_dropped = all_dropped t in
    let snapshots = ref [] in
    let decisions = ref [] in
    let gated = ref [] in
    List.iteri
      (fun i (p, w) ->
        let st = t.sources.(i) in
        if not st.dropped then begin
          let prev = status_of st in
          let a = agreement p anchor in
          let lambda = t.options.smoothing in
          st.trust <- ((1. -. lambda) *. st.trust) +. (lambda *. a);
          if st.trust < t.options.threshold then st.below <- st.below + 1 else st.below <- 0;
          if st.below >= t.options.hysteresis then st.dropped <- true;
          let now = status_of st in
          let weight =
            match now with
            | Dropped -> 0.
            | Attenuated -> w *. (st.trust /. t.options.threshold)
            (* [w *. 1.] would already be bit-exact, but return [w]
               itself so an always-trusted source is transparently the
               ungated prior. *)
            | Active -> w
          in
          (match (prev, now) with
          | Active, Attenuated ->
              decisions :=
                { d_refit = refit; d_source = i; d_action = Attenuate; d_trust = st.trust;
                  d_below = st.below }
                :: !decisions
          | Attenuated, Active ->
              decisions :=
                { d_refit = refit; d_source = i; d_action = Restore; d_trust = st.trust;
                  d_below = st.below }
                :: !decisions
          | (Active | Attenuated), Dropped ->
              decisions :=
                { d_refit = refit; d_source = i; d_action = Drop; d_trust = st.trust;
                  d_below = st.below }
                :: !decisions
          | _ -> ());
          snapshots :=
            {
              s_refit = refit;
              s_source = i;
              s_agreement = a;
              s_trust = st.trust;
              s_weight = weight;
              s_status = now;
            }
            :: !snapshots;
          if not st.dropped then gated := (p, weight) :: !gated
        end)
      priors;
    if (not was_all_dropped) && all_dropped t then
      decisions :=
        { d_refit = refit; d_source = -1; d_action = Fallback; d_trust = 0.; d_below = 0 }
        :: !decisions;
    {
      step_priors = List.rev !gated;
      step_snapshots = List.rev !snapshots;
      step_decisions = List.rev !decisions;
    }
  end
