(* Tests for tools/reproduce: the block splicer that keeps EXPERIMENTS.md
   in step with the code, the markdown renderer, and the multi-seed JSON
   results. *)

open Sherlock_reproduce
module Json = Sherlock_provenance.Json

let check = Alcotest.check

let table1 = List.assoc "table1" Paper.checked Sherlock_core.Config.default

let render = function "table1" -> Some (Artifact.render table1) | _ -> None

let splice doc = Splice.splice ~file:"EXPERIMENTS.md" ~render doc

let stale =
  "# Doc\n\nProse.\n<!-- reproduce:table1 -->\nstale\n<!-- /reproduce -->\nEnd.\n"

let current = match splice stale with Ok doc -> doc | Error msg -> failwith msg

let test_render_markdown () =
  let art =
    {
      Artifact.title = "T";
      style = Artifact.Markdown;
      tables =
        [
          Artifact.table [ ""; "n"; "p" ]
            [
              [ Artifact.Text "row"; Artifact.Int 12; Artifact.Pct 60.4 ];
              [ Artifact.Text "none"; Artifact.Int 0; Artifact.Pct nan ];
            ];
        ];
    }
  in
  check Alcotest.string "padded pipe table"
    "|      | n  | p   |\n\
     |------|----|-----|\n\
     | row  | 12 | 60% |\n\
     | none | 0  | n/a |\n"
    (Artifact.render art);
  check Alcotest.string "fenced columns"
    "```\n      n   p\nrow   12  60%\nnone  0   n/a\n```\n"
    (Artifact.render { art with style = Artifact.Fenced });
  check
    Alcotest.(list (pair string (float 0.0)))
    "numeric cells" [ ("row/n", 12.0); ("row/p", 60.4); ("none/n", 0.0) ]
    (Artifact.numeric_cells art)

let test_splice_current_is_identity () =
  check Alcotest.bool "block regenerated" true
    (String.length current > 0
    && current
       = "# Doc\n\nProse.\n<!-- reproduce:table1 -->\n\n" ^ Artifact.render table1
         ^ "\n<!-- /reproduce -->\nEnd.\n");
  check Alcotest.(result string string) "current doc unchanged" (Ok current)
    (splice current);
  let no_newline = String.sub current 0 (String.length current - 1) in
  check Alcotest.(result string string) "no final newline kept" (Ok no_newline)
    (splice no_newline)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then Alcotest.failf "%S not found" sub
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_splice_restores_edited_cell () =
  let edited = replace_first ~sub:"| 306 " ~by:"| 307 " current in
  check Alcotest.bool "edit applied" false (edited = current);
  check Alcotest.(result string string) "edited cell regenerated" (Ok current)
    (splice edited)

let test_splice_errors_positioned () =
  let err doc = match splice doc with Ok _ -> "ok" | Error msg -> msg in
  let expect name line doc =
    let msg = err doc in
    check Alcotest.bool
      (Printf.sprintf "%s at line %d: %s" name line msg)
      true
      (String.starts_with ~prefix:(Printf.sprintf "EXPERIMENTS.md:%d: " line) msg)
  in
  expect "unknown name" 2 "a\n<!-- reproduce:table99 -->\n<!-- /reproduce -->\n";
  expect "unclosed" 3 "a\nb\n<!-- reproduce:table1 -->\nc\n";
  expect "nested" 4
    "<!-- reproduce:table1 -->\n\nx\n<!-- reproduce:table1 -->\n<!-- /reproduce -->\n";
  expect "stray close" 1 "<!-- /reproduce -->\n"

let test_results_json_roundtrip () =
  let fake config =
    {
      Artifact.title = "fake";
      style = Artifact.Markdown;
      tables =
        [
          Artifact.table [ ""; "seed"; "p" ]
            [
              [
                Artifact.Text "r"; Artifact.Int config.Sherlock_core.Config.seed;
                Artifact.Pct (if config.seed = 2 then nan else 50.0);
              ];
            ];
        ];
    }
  in
  let artifacts = [ ("table1", List.assoc "table1" Paper.checked); ("fake", fake) ] in
  let seeds = [ 1; 2; 3; 4 ] in
  let json =
    match Json.of_string (Json.to_string (Results.collect ~seeds artifacts)) with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (name, f) ->
      let cells_at seed =
        Artifact.numeric_cells (f { Sherlock_core.Config.default with seed })
      in
      let per_seed = List.map cells_at seeds in
      let cells = Json.member name (Json.member "artifacts" json) in
      List.iter
        (fun (key, _) ->
          let value cs =
            match List.assoc_opt key cs with Some v -> Json.Num v | None -> Json.Null
          in
          let expected = List.map value per_seed in
          check Alcotest.bool (name ^ " " ^ key) true
            (Json.to_list (Json.member "values" (Json.member key cells)) = expected))
        (List.hd per_seed))
    artifacts;
  check
    Alcotest.(option (triple (float 0.0) (float 0.0) (float 0.0)))
    "seed spread" (Some (2.5, 1.0, 3.0))
    (Results.spread json ~artifact:"fake" "r/seed");
  check
    Alcotest.(option (triple (float 0.0) (float 0.0) (float 0.0)))
    "missing cells skipped" (Some (50.0, 50.0, 50.0))
    (Results.spread json ~artifact:"fake" "r/p")

let () =
  Alcotest.run "reproduce"
    [
      ( "render",
        [ Alcotest.test_case "markdown and fenced" `Quick test_render_markdown ] );
      ( "splice",
        [
          Alcotest.test_case "current doc is identity" `Quick
            test_splice_current_is_identity;
          Alcotest.test_case "edited cell regenerated" `Quick
            test_splice_restores_edited_cell;
          Alcotest.test_case "marker errors positioned" `Quick
            test_splice_errors_positioned;
        ] );
      ( "results",
        [ Alcotest.test_case "json round trip" `Quick test_results_json_roundtrip ] );
    ]
