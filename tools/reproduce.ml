(* Regenerates the paper's evaluation (Section 5) as markdown.

     dune exec tools/reproduce.exe                     # every checked artifact
     dune exec tools/reproduce.exe -- table2 figure4   # some of them
     dune exec tools/reproduce.exe -- overhead         # wall-clock, context only
     dune exec tools/reproduce.exe -- --list
     dune exec tools/reproduce.exe -- --seeds 30 --out results/seeds-1-30.json
     dune exec tools/reproduce.exe -- --splice EXPERIMENTS.md

   Artifacts run at the paper's defaults (seed 42).  [--seeds N --out
   FILE] writes every numeric cell at seeds 1..N with its median and
   quartiles.  [--splice DOC] prints DOC with each
   [<!-- reproduce:NAME -->] block regenerated; [dune runtest] diffs
   EXPERIMENTS.md against that output, and [dune promote] accepts it.
   Run from the repository root: Table 2 and Table 5 get a spread row
   from results/seeds-1-30.json when that file exists.  Marker errors
   and unknown names exit 2. *)

module Json = Sherlock_provenance.Json
open Sherlock_reproduce

let spread_file = "results/seeds-1-30.json"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let seeds = ref 0 and out = ref "" and splice = ref "" and list = ref false in
  let names = ref [] in
  Arg.parse
    [
      ("--seeds", Arg.Set_int seeds, "N  run seeds 1..N and write --out");
      ("--out", Arg.Set_string out, "FILE  JSON results of --seeds");
      ("--splice", Arg.Set_string splice, "DOC  print DOC with its blocks regenerated");
      ("--list", Arg.Set list, " list the artifact names");
    ]
    (fun name -> names := !names @ [ name ])
    "reproduce [--list | --seeds N --out FILE | --splice DOC | ARTIFACT...]";
  let config = Sherlock_core.Config.default in
  let spread =
    if not (Sys.file_exists spread_file) then None
    else
      match Json.of_string (read_file spread_file) with
      | Ok json -> Some json
      | Error msg -> fail "%s: %s" spread_file msg
  in
  let artifact name =
    match (name, List.assoc_opt name Paper.checked) with
    | "overhead", _ -> Some (Paper.overhead config)
    | _, Some f -> (
      let art = f config in
      match spread with
      | Some json -> Some (Results.with_spread json name art)
      | None -> Some art)
    | _, None -> None
  in
  if !list then List.iter print_endline (List.map fst Paper.checked @ [ "overhead" ])
  else if !seeds > 0 then begin
    if !out = "" then fail "--seeds needs --out FILE";
    let json =
      Results.collect
        ~progress:(fun s -> Printf.eprintf "seed %d/%d\n%!" s !seeds)
        ~seeds:(List.init !seeds (fun i -> i + 1))
        Paper.checked
    in
    Out_channel.with_open_bin !out (fun oc ->
        output_string oc (Json.to_string json);
        output_char oc '\n')
  end
  else if !splice <> "" then
    (* [overhead] is wall-clock, so no block may hold it. *)
    let render name =
      if name = "overhead" then None else Option.map Artifact.render (artifact name)
    in
    match Splice.splice ~file:!splice ~render (read_file !splice) with
    | Ok doc -> print_string doc
    | Error msg -> fail "%s" msg
  else
    List.iter
      (fun name ->
        match artifact name with
        | Some art -> Printf.printf "## %s\n\n%s\n%!" art.title (Artifact.render art)
        | None -> fail "unknown artifact %S (try --list)" name)
      (if !names = [] then List.map fst Paper.checked else !names)
