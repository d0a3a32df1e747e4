(** The chaos engine: execute a {!Campaign} deterministically under the
    online {!Invariant} monitors, shrink any violation to a minimal
    schedule, and round-trip counterexamples through [.chaos.json]
    files that replay bit-for-bit.

    A run builds a fresh cluster from the campaign (shape, style, seed),
    attaches the monitors, schedules the fault steps and traffic, and
    drives simulated time in fixed slices so a violation stops the run
    promptly. Violation-free runs finish like the fuzz harness always
    did: heal everything, quiesce, then the end-of-run checks. *)

type result = {
  campaign : Campaign.t;
  monitor : Invariant.config;
  violations : Invariant.violation list;  (** chronological; [] = pass *)
  submitted : int option;  (** burst total; [None] for saturation *)
  delivered : int;  (** messages delivered at node 0 *)
  finished_at : Totem_engine.Vtime.t;
  events : int;
      (** simulator events processed — with [delivered] and
          [finished_at], a cheap determinism fingerprint *)
  recorder : Totem_engine.Recorder.t;
      (** the run's flight recorder, detached: the last events each
          node saw, bounded per node. Read it with {!history}. *)
}

val passed : result -> bool

val history : result -> (int * string list) list
(** The flight-recorder dump, rendered on demand: for each node (and
    [-1] for fabric-level events), the last events it saw as telemetry
    JSONL lines, oldest first. Deterministic like the rest of the
    result, and byte-identical on every call. *)

val pp_result : Format.formatter -> result -> unit

val run :
  ?monitor:Invariant.config ->
  ?sink:(Totem_engine.Vtime.t -> Totem_engine.Telemetry.event -> unit) ->
  ?shadow:bool ->
  ?sim_domains:int ->
  ?window_batch:bool ->
  ?max_horizon_factor:int ->
  ?prepare:(Totem_cluster.Cluster.t -> unit) ->
  ?probes:(Totem_engine.Vtime.t * (Totem_cluster.Cluster.t -> unit)) list ->
  ?end_checks:bool ->
  Campaign.t ->
  result
(** Deterministic: equal campaigns and monitor configs give equal
    results, violations included. [sink] additionally streams every
    telemetry event (e.g. {!Totem_engine.Telemetry.jsonl_sink}).
    [sim_domains] (default 0) selects {!Config.sim_domains}: under the
    parallel core the run — violations, replay dumps and all — is
    bitwise-identical for every [sim_domains >= 1].
    [window_batch] (default true) and [max_horizon_factor] (default 8)
    select {!Config.window_batch} / {!Config.max_horizon_factor}; both
    are ignored on the legacy path, and under the parallel core results
    are bitwise-identical whatever they are set to — exposed so the
    determinism tests can run the batched and unbatched legs.
    [shadow] (default false) arms [Config.codec_shadow]: every frame the
    cluster carries is round-tripped through the binary codec, and in
    byte-wire campaigns ([Campaign.wire]) the check runs on what the
    receiving NIC actually decoded.

    [prepare] runs against the freshly built cluster after the monitors
    attach but before [Cluster.start] — the hook the explorer's mutation
    canary and self-stabilization mode use to install test-only
    instrumentation or schedule perturbations. A [prepare] that mutates
    protocol state makes the run exactly as deterministic as the hook
    itself.

    [probes] are step-granular observation points: at each (time, f),
    once the cluster has fully processed every event at or before that
    time (a [Cluster.run_until] boundary, so the read is identical for
    every [sim_domains]), [f] is applied to the cluster. Probes must be
    read-only to preserve replayability; they fire only while the run is
    still violation-free, and probe times past the end of the run are
    dropped. With [probes = []] the drive loop is bit-for-bit the
    historical one.

    [end_checks] (default true): when false the run stops at
    [campaign.duration] — no administrator heal, no quiesce drain, no
    {!Invariant.final_checks}. The explorer uses this for prefix
    executions whose only purpose is a state fingerprint.
    @raise Invalid_argument if {!Campaign.validate} rejects the
    campaign. *)

(** {1 Shrinking} *)

type shrink_report = {
  minimized : Campaign.t;
  runs_used : int;
  original_steps : int;
  minimized_steps : int;
}

val shrink :
  ?monitor:Invariant.config ->
  ?budget:int ->
  ?prepare:(Totem_cluster.Cluster.t -> unit) ->
  Campaign.t ->
  Invariant.violation ->
  shrink_report
(** Greedy delta debugging over the step schedule: drop chunks of
    decreasing size, re-executing after each candidate, keeping any drop
    after which the same invariant still fires first. [budget] caps
    re-executions (default 160). [prepare] rides along into every
    re-execution (a violation seeded by instrumentation shrinks under
    the same instrumentation). The result reproduces the violation by
    construction (or is the original campaign if nothing could be
    dropped). *)

(** {1 Counterexample files} *)

val schema : string
(** ["totem-chaos/v3"]. [read_counterexample] also accepts v1 files,
    which carry no history block, and v2 files, whose history predates
    v3's event format and is dropped on read: both replay their
    violation without the history comparison. *)

type counterexample = {
  cx_campaign : Campaign.t;
  cx_monitor : Invariant.config;
  cx_violation : Invariant.violation option;
      (** what the original run observed first; [None] for a saved
          baseline expected to pass *)
  cx_shrunk : bool;
      (** false marks an unshrunk capture — the chaos-smoke alias fails
          if one is left in the tree *)
  cx_history : (int * Chaos_json.t list) list;
      (** flight-recorder dump of the capturing run, per node ([-1] =
          fabric), each event a parsed telemetry JSON object; [] for v1
          and v2 files and for captures made without history *)
}

val history_json : result -> (int * Chaos_json.t list) list
(** A result's flight-recorder dump reparsed into JSON values, suitable
    for [cx_history]. Telemetry event JSON is integers and strings
    only, so the round trip is exact: structural equality of the parsed
    values coincides with byte equality of the JSONL lines. *)

val counterexample_to_json : counterexample -> Chaos_json.t

val write_counterexample : path:string -> counterexample -> unit

val read_counterexample : path:string -> (counterexample, string) Stdlib.result

type replay_outcome =
  | Reproduced of result
      (** the replay hit the same invariant at the same virtual time
          with the same detail — and, for v3 files, an identical
          flight-recorder history *)
  | Diverged of result * string
  | Clean_replay of result

val replay :
  ?prepare:(Totem_cluster.Cluster.t -> unit) -> counterexample -> replay_outcome
(** [prepare] re-installs the instrumentation of the capturing run, when
    there was any (see {!run}). *)

val replay_file : path:string -> (replay_outcome, string) Stdlib.result
