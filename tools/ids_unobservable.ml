(* Op ids must be unobservable.  Ids follow creation order, so this
   program creates ops in an order no plain run uses, then prints the
   same lines as [verdict_digest.exe] (it takes the same flags): first
   decoys (the synthetic logs' names, and names sorting before, among
   and after the corpus's, each set created in reverse), then the stress
   program and every corpus app's inference in reverse registry order,
   each with its tests in reverse.
   The tools' dune rule diffs its output against a plain
   [verdict_digest.exe] run in another process: an order, tie-break or
   output that depended on ids would show there. *)

module Opid = Sherlock_trace.Opid
open Sherlock_core

let make cls member = function
  | Opid.Read -> Opid.read ~cls member
  | Write -> Opid.write ~cls member
  | Begin -> Opid.enter ~cls member
  | End -> Opid.exit ~cls member

let decoys () =
  let kinds = [ Opid.End; Begin; Write; Read ] in
  let names cls member = List.iter (fun k -> ignore (make cls member k)) kinds in
  (* [Synth.log]'s field and method names. *)
  for f = 4095 downto 0 do
    names (Printf.sprintf "C%d" (f / 16)) (Printf.sprintf "f%d" (f mod 16))
  done;
  for m = 31 downto 0 do
    names (Printf.sprintf "C%d" (m / 4)) (Printf.sprintf "m%d" (m mod 4))
  done;
  List.iter
    (fun cls ->
      for i = 63 downto 0 do
        names cls (Printf.sprintf "decoy%d" i)
      done)
    [ "zz.Decoy"; "System.Threading.Monitor"; "Stress.Data"; "Insights.Decoy"; "A" ]

let () =
  decoys ();
  let module Runtime = Sherlock_sim.Runtime in
  ignore
    (Runtime.run ~seed:1 ~instrument:(Runtime.tracing ())
       (Sherlock_corpus.Workload.stress ~workers:6 ~iters:20));
  let config = { Config.default with seed = 1 } in
  List.iter
    (fun app ->
      let subject = Sherlock_corpus.App.subject app in
      ignore
        (Orchestrator.infer ~config
           { subject with tests = List.rev subject.Orchestrator.tests }))
    (List.rev (Sherlock_corpus.Registry.all ()));
  Digests.main ()
