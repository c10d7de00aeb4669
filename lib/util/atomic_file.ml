(* The temporary file is in [path]'s directory so that the rename stays
   on one filesystem, and has a fresh name so that two writers of one
   path never share it. *)
let write path f =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:(Filename.dirname path) (Filename.basename path) ".tmp"
  in
  match
    f oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
