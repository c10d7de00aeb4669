(* Bitwise fingerprint of corpus inference, window extraction, logs,
   codecs and duration samples (see digests.ml for what each line hashes).

     dune exec tools/verdict_digest.exe -- [--seeds N] [--dump FILE]
       [--against FILE]   (default 30 seeds) *)

let () = Digests.main ()
