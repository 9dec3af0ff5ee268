(* Shard planning: split the campaign's planned (target, workload) list
   into shards.  The split is contiguous and balanced, so concatenating
   the shards in sh_index order reproduces the serial target order. *)

let shard_count ~workers ~shards ~targets =
  if targets = 0 then 0
  else if shards > 0 then min shards targets
  else max 1 (min targets (4 * max 1 workers))

let split ~count targets =
  if count <= 0 then []
  else begin
    let arr = Array.of_list targets in
    let n = Array.length arr in
    List.init count (fun i ->
        let lo = i * n / count and hi = (i + 1) * n / count in
        { Proto.sh_index = i; sh_targets = Array.to_list (Array.sub arr lo (hi - lo)) })
    |> List.filter (fun s -> s.Proto.sh_targets <> [])
  end
