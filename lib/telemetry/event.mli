(** Typed campaign-trace events.

    Each event is one fact about a tuning campaign — an init draw, a
    surrogate refit, a compiled-table build, a candidate-ranking scan,
    an evaluation verdict — with the measurements production BO
    services need to diagnose regressions (wall-times, good/bad split
    sizes, retry counts). Durations are wall-clock milliseconds read
    from the trace's clock; they are observations only and never feed
    back into the campaign, which is what keeps a traced run
    bit-identical to an untraced one. *)

type t =
  | Campaign_start of {
      budget : int;
      n_init : int;
      batch_size : int;
          (** evaluations in flight at once: [k] for an async campaign,
              1 for a synchronous one (the field keeps its historical
              name so trace files keep their format) *)
      n_warm : int;  (** warm-start observations supplied *)
      n_replay : int;  (** recorded verdicts replayed by a resume *)
    }
  | Init_draw of {
      index : int;  (** 0-based ordinal of the init draw *)
      redraws : int;  (** duplicate redraws spent before settling *)
      duplicate : bool;  (** final draw was still a duplicate (skipped) *)
    }
  | Refit of {
      n_obs : int;
      n_good : int;
      n_bad : int;
      n_extra_bad : int;  (** failed configurations joining the bad side *)
      alpha : float;  (** the quantile threshold parameter of this refit *)
      threshold : float;  (** the α-quantile objective value (eq. 5 split) *)
      n_priors : int;  (** transfer prior sources merged into this fit *)
      prior_weight : float;
          (** total effective prior weight (post-gate sum across
              sources); 0 for a prior-free fit *)
      dur_ms : float;
    }
  | Compile of { pool_size : int; n_params : int; dur_ms : float }
  | Rank of {
      pool_size : int;
      k : int;
      selected : int;
      workers : int;
          (** always 1: ranking is one sequential scan. Kept because
              trace readers (the end-to-end benchmark's
              [strategy.rank_workers]) still read it; older traces
              recorded a parallel scan's participant count here *)
      excluded : int;
          (** size of the exclusion set the scan skipped (evaluated and
              in-flight pool rows); 0 when decoded from an older
              trace *)
      visited : int;
          (** leaf rows the scan reached — the rest were pruned by
              branch and bound; 0 when decoded from an older trace *)
      dur_ms : float;
    }
  | Trust of {
      refit : int;  (** trust-update ordinal (refits past the gate's min_obs) *)
      source : int;  (** transfer source index *)
      agreement : float;
          (** raw rank agreement with the unbiased anchor observations, [0, 1] *)
      trust : float;  (** exponentially smoothed trust after this update *)
      weight : float;  (** effective prior weight handed to this refit *)
      state : string;  (** "active", "attenuated", or "dropped" *)
    }
  | Gate of {
      refit : int;
      source : int;  (** source index; -1 for the pooled-prior fallback *)
      action : string;  (** "attenuate", "restore", "drop", or "fallback" *)
      trust : float;  (** trust at the moment of the transition *)
    }
  | Promote of {
      bracket : int;  (** successive-halving bracket ordinal *)
      rung : int;  (** the rung that closed *)
      kept : int;  (** survivors promoted to the next rung *)
      total : int;  (** results the closure decision saw *)
      best : float;  (** best objective at the closing rung *)
    }
  | Demote of {
      bracket : int;
      rung : int;
      dropped : int;  (** configurations abandoned at this closure *)
      total : int;
    }
  | Submit of {
      index : int;  (** 0-based submission ordinal *)
      in_flight : int;  (** in-flight depth after this submission *)
      sim_time : float;  (** simulated submission time (async engine clock) *)
    }
  | Complete of {
      index : int;  (** 0-based completion ordinal (the budget unit) *)
      in_flight : int;  (** in-flight depth after this completion *)
      sim_time : float;  (** simulated completion time *)
      kind : string;  (** final verdict kind: "ok"/"transient"/... *)
    }
  | Attempt of {
      attempt : int;  (** 1-based attempt number within the retry loop *)
      kind : string;  (** classified outcome: "ok"/"transient"/... *)
      backoff : float;  (** simulated backoff cost accumulated before it *)
    }
  | Eval of {
      index : int;  (** 0-based evaluation index (budget unit) *)
      kind : string;
      value : float option;  (** the measurement, [None] for failures *)
      attempts : int;
      retry_cost : float;
      replayed : bool;  (** verdict came from a resume replay, not a run *)
      dur_ms : float;  (** 0 for replayed verdicts *)
    }
  | Campaign_end of {
      evaluations : int;  (** budget units consumed *)
      failures : int;
      best : float option;
      stopped_early : bool;
      dur_ms : float;
    }

val name : t -> string
(** The wire name of the event's variant ("refit", "rank", ...). *)

val to_fields : t -> (string * Jsonl.value) list
(** Flat field list including the ["ev"] discriminator, ready for
    {!Jsonl.encode}. *)

val of_fields : (string * Jsonl.value) list -> t
(** Inverse of {!to_fields}; ignores unknown extra fields (such as the
    reader-level ["ts"]). Raises [Failure] on a missing discriminator,
    an unknown event name, or a missing/mistyped field. *)
