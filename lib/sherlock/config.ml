type t = {
  lambda : float;
  near : int;
  window_cap : int;
  delay_us : int;
  rounds : int;
  parallelism : int;
  extract_jobs : int;
  threshold : float;
  rare_coeff : float;
  seed : int;
  use_protected : bool;
  use_rare : bool;
  use_variation : bool;
  use_paired : bool;
  use_role_property : bool;
  use_single_role : bool;
  single_role_soft : bool;
  use_delays : bool;
  delay_probability : float;
  accumulate : bool;
  use_race_removal : bool;
  use_refinement : bool;
  max_steps : int;
  retries : int;
  fault_plan : Sherlock_sim.Fault.plan;
  provenance : bool;
  metrics_interval_ms : int;
}

let default =
  {
    lambda = 0.2;
    near = 1_000_000;
    window_cap = 15;
    delay_us = 100_000;
    rounds = 3;
    parallelism = 1;
    extract_jobs = 1;
    threshold = 0.9;
    rare_coeff = 0.1;
    seed = 42;
    use_protected = true;
    use_rare = true;
    use_variation = true;
    use_paired = true;
    use_role_property = true;
    use_single_role = true;
    single_role_soft = false;
    use_delays = true;
    delay_probability = 1.0;
    accumulate = true;
    use_race_removal = true;
    use_refinement = true;
    max_steps = 1_000_000;
    retries = 1;
    fault_plan = Sherlock_sim.Fault.empty;
    provenance = false;
    metrics_interval_ms = 0;
  }

let pp ppf t =
  Format.fprintf ppf
    "lambda=%g near=%dus cap=%d delay=%dus rounds=%d threshold=%g seed=%d \
     max-steps=%d retries=%d"
    t.lambda t.near t.window_cap t.delay_us t.rounds t.threshold t.seed
    t.max_steps t.retries;
  if t.provenance then Format.fprintf ppf " provenance=on";
  if t.metrics_interval_ms > 0 then
    Format.fprintf ppf " metrics-interval=%dms" t.metrics_interval_ms;
  if not (Sherlock_sim.Fault.is_empty t.fault_plan) then
    Format.fprintf ppf " fault=[%a]" Sherlock_sim.Fault.pp t.fault_plan
