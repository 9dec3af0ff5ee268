(* kfi-worker — shard-execution worker process.

   Not meant to be run by hand: spawned by the supervising coordinator
   (Kfi_shard.Supervisor, i.e. `kfi-campaign --workers N`), speaks the
   length-prefixed frame protocol on stdin/stdout and streams every
   completed injection back for the coordinator to journal. *)

let () = Kfi_shard.Worker.main ()
