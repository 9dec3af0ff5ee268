(* Kernel integration tests: boot, all eight workloads, and targeted
   exercises of syscalls, pipes, fork/COW, brk and error paths through
   custom user programs. *)

open Kfi_kcc.C
open Kfi_workload.Ulib
open Kernel_testbed

let check = Alcotest.check
let int = Alcotest.int

let test_boot_banner () =
  let result, console, _, _ = run_workload "hanoi" in
  ignore (expect_exit "hanoi" result);
  check Alcotest.bool "boot banner" true (console_has console "Linux-sim version 2.4.19-kfi");
  check Alcotest.bool "mounted root" true (console_has console "VFS: mounted root")

let workload_expectations =
  [
    ("syscall", "syscall: ok sum=5700");
    ("pipe", "pipe: ok sum=");
    ("context1", "context1: ok sum=820");
    ("spawn", "spawn: ok sum=12");
    ("fstime", "fstime: ok sum=");
    ("hanoi", "hanoi: ok sum=2047");
    ("dhry", "dhry: ok sum=");
    ("looper", "looper: ok sum=40");
  ]

let test_workload (name, expect) () =
  let result, console, _, _ = run_workload name in
  check int (name ^ " exit") 0 (expect_exit name result);
  check Alcotest.bool (name ^ " output") true (console_has console expect)

(* the disk is consistent after every workload (including fstime's
   create/write/unlink cycle) *)
let test_fs_clean_after_workloads () =
  List.iter
    (fun name ->
      let result, _, m, _ = run_workload name in
      ignore (expect_exit name result);
      let image = Kfi_isa.Devices.Disk.image (Kfi_isa.Machine.disk m) in
      match Kfi_fsimage.Fsck.check ~manifest:(Kfi_workload.Progs.manifest ()) image with
      | Kfi_fsimage.Fsck.Clean -> ()
      | Kfi_fsimage.Fsck.Repairable ps ->
        Alcotest.failf "%s left a dirty fs: %s" name (String.concat "; " ps)
      | Kfi_fsimage.Fsck.Unrecoverable why ->
        Alcotest.failf "%s destroyed the fs: %s" name why)
    [ "syscall"; "fstime"; "spawn" ]

(* --- custom-program tests --- *)

let run_main ?extra_files stmts =
  let main = func "main" ~subsys:"user" ~params:[] stmts in
  let result, console, _, _ = run_custom ?extra_files ~funcs:[ main ] ~data:[] () in
  (expect_exit "custom" result, console)

let test_exit_code_propagates () =
  let code, _ = run_main [ ret (num 37) ] in
  check int "exit code" 37 code

let test_open_missing_file () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_open (addr "s_missing") (num 0));
        (* -ENOENT = -2 *)
        when_ (l "fd" ==. neg (num 2)) [ ret (num 0) ];
        ret (num 1);
      ]
  in
  let data = ustr "s_missing" "/no/such/file" in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "ENOENT" 0 (expect_exit "open missing" result)

let test_bad_fd () =
  let code, _ =
    run_main
      [
        (* read/write/close on a bad fd: -EBADF = -9 *)
        when_ (u_read (num 12) (num 0x08048000) (num 4) <>. neg (num 9)) [ ret (num 1) ];
        when_ (u_write (num 13) (num 0x08048000) (num 4) <>. neg (num 9)) [ ret (num 2) ];
        when_ (u_close (num 14) <>. neg (num 9)) [ ret (num 3) ];
        ret (num 0);
      ]
  in
  check int "EBADF" 0 code

let test_unknown_syscall () =
  let code, _ =
    run_main
      [
        (* syscall 99 is unassigned: -ENOSYS = -38 *)
        when_ (sc 99 [] <>. neg (num 38)) [ ret (num 1) ];
        (* out-of-range number *)
        when_ (sc 200 [] <>. neg (num 38)) [ ret (num 2) ];
        ret (num 0);
      ]
  in
  check int "ENOSYS" 0 code

let test_lseek_and_readback () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_creat (addr "s_path"));
        when_ (l "fd" <. num 0) [ ret (num 1) ];
        sto32 (addr "buf") (num32 0xCAFEBABEl);
        when_ (u_write (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 2) ];
        sto32 (addr "buf") (num32 0x12345678l);
        when_ (u_write (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 3) ];
        (* seek back to the second word *)
        when_ (u_lseek (l "fd") (num 4) (num 0) <>. num 4) [ ret (num 4) ];
        when_ (u_read (l "fd") (addr "buf2") (num 4) <>. num 4) [ ret (num 5) ];
        when_ (lod32 (addr "buf2") <>. num32 0x12345678l) [ ret (num 6) ];
        (* SEEK_END *)
        when_ (u_lseek (l "fd") (num 0) (num 2) <>. num 8) [ ret (num 7) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 8) ];
        when_ (u_unlink (addr "s_path") <>. num 0) [ ret (num 9) ];
        ret (num 0);
      ]
  in
  let data =
    ustr "s_path" "/tmp/seektest"
    @ [ Kfi_asm.Assembler.Align 4; Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 4;
        Kfi_asm.Assembler.Label "buf2"; Kfi_asm.Assembler.Zeros 4 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "lseek" 0 (expect_exit "lseek" result)

let test_file_persistence_across_cache () =
  (* write a file larger than the page cache's per-inode window, then read
     it back; contents must survive eviction + readpage *)
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_creat (addr "s_path"));
        when_ (l "fd" <. num 0) [ ret (num 1) ];
        decl "i" (num 0);
        while_ (l "i" <. num 24)
          [
            sto32 (addr "buf") (l "i" * num 77);
            when_ (u_write (l "fd") (addr "buf") (num 1024) <>. num 1024) [ ret (num 2) ];
            set "i" (l "i" + num 1);
          ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 3) ];
        set "fd" (u_open (addr "s_path") (num 0));
        when_ (l "fd" <. num 0) [ ret (num 4) ];
        set "i" (num 0);
        while_ (l "i" <. num 24)
          [
            when_ (u_read (l "fd") (addr "buf") (num 1024) <>. num 1024) [ ret (num 5) ];
            when_ (lod32 (addr "buf") <>. (l "i" * num 77)) [ ret (num 6) ];
            set "i" (l "i" + num 1);
          ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 7) ];
        when_ (u_unlink (addr "s_path") <>. num 0) [ ret (num 8) ];
        ret (num 0);
      ]
  in
  let data =
    ustr "s_path" "/tmp/big"
    @ [ Kfi_asm.Assembler.Align 4; Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 1024 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "24KB file (indirect blocks)" 0 (expect_exit "persistence" result)

let test_read_existing_file () =
  (* /etc/motd is placed by mkfs *)
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_open (addr "s_path") (num 0));
        when_ (l "fd" <. num 0) [ ret (num 1) ];
        decl "n" (u_read (l "fd") (addr "buf") (num 64));
        (* "welcome to linux-sim\n" = 21 bytes *)
        when_ (l "n" <>. num 21) [ ret (num 2) ];
        when_ (lod8 (addr "buf") <>. num 119) [ ret (num 3) ]; (* 'w' *)
        ret (num 0);
      ]
  in
  let data =
    ustr "s_path" "/etc/motd"
    @ [ Kfi_asm.Assembler.Align 4; Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 64 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "read /etc/motd" 0 (expect_exit "motd" result)

let test_fork_cow_isolation () =
  (* after fork, writes in the child must not be seen by the parent *)
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        sto32 (addr "shared") (num 111);
        decl "pid" u_fork;
        when_ (l "pid" <. num 0) [ ret (num 1) ];
        when_ (l "pid" ==. num 0)
          [
            sto32 (addr "shared") (num 222);
            when_ (lod32 (addr "shared") <>. num 222) [ do_ (u_exit (num 9)) ];
            do_ (u_exit (num 0));
          ];
        decl "st" (num 0);
        when_ (u_waitpid (l "pid") (addr_local "st") <>. l "pid") [ ret (num 2) ];
        when_ (l "st" <>. num 0) [ ret (num 3) ];
        when_ (lod32 (addr "shared") <>. num 111) [ ret (num 4) ];
        ret (num 0);
      ]
  in
  let data = [ Kfi_asm.Assembler.Align 4; Kfi_asm.Assembler.Label "shared"; Kfi_asm.Assembler.Zeros 4 ] in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "COW isolation" 0 (expect_exit "cow" result)

let test_wait_echild () =
  let code, _ =
    run_main
      [
        decl "st" (num 0);
        (* no children: -ECHILD = -10 *)
        when_ (u_waitpid (neg (num 1)) (addr_local "st") <>. neg (num 10)) [ ret (num 1) ];
        ret (num 0);
      ]
  in
  check int "ECHILD" 0 code

let test_pipe_eof_and_epipe () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        when_ (u_pipe (addr "fds") <>. num 0) [ ret (num 1) ];
        sto32 (addr "buf") (num 7);
        when_ (u_write (lod32 (addr "fds" + num 4)) (addr "buf") (num 4) <>. num 4)
          [ ret (num 2) ];
        (* close the write end: remaining data then EOF *)
        when_ (u_close (lod32 (addr "fds" + num 4)) <>. num 0) [ ret (num 3) ];
        when_ (u_read (lod32 (addr "fds")) (addr "buf") (num 4) <>. num 4) [ ret (num 4) ];
        when_ (u_read (lod32 (addr "fds")) (addr "buf") (num 4) <>. num 0) [ ret (num 5) ];
        (* writing to the read end is refused *)
        when_ (u_write (lod32 (addr "fds")) (addr "buf") (num 4) <>. neg (num 9))
          [ ret (num 6) ];
        ret (num 0);
      ]
  in
  let data =
    [ Kfi_asm.Assembler.Align 4; Kfi_asm.Assembler.Label "fds"; Kfi_asm.Assembler.Zeros 8;
      Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 4 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "pipe EOF/EBADF" 0 (expect_exit "pipe eof" result)

let test_brk_grow_shrink () =
  let code, _ =
    run_main
      [
        decl "base" (u_brk (num 0));
        when_ (l "base" <=. num 0) [ ret (num 1) ];
        when_ (u_brk (l "base" + num 8192) <>. (l "base" + num 8192)) [ ret (num 2) ];
        sto32 (l "base" + num 8188) (num 99);
        when_ (lod32 (l "base" + num 8188) <>. num 99) [ ret (num 3) ];
        (* shrink back *)
        when_ (u_brk (l "base") <>. l "base") [ ret (num 4) ];
        (* bogus brk values are refused *)
        when_ (u_brk (num 4096) <>. neg (num 12)) [ ret (num 5) ];
        ret (num 0);
      ]
  in
  check int "brk" 0 code

let test_user_segfault_kills () =
  (* dereferencing NULL in user mode kills the process; the kernel
     survives and reports exit 139 *)
  let code, console =
    run_main [ do_ (lod32 (num 0) |> fun e -> Kfi_kcc.Ast.Call ("ustrlen", [ e ])); ret (num 0) ]
  in
  check int "killed" 139 code;
  check Alcotest.bool "segfault message" true (console_has console "segfault: killing pid")

let test_user_divide_error_kills () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [ decl "z" (num 0); ret (num 7 / l "z") ]
  in
  let result, console, _, _ = run_custom ~funcs:[ main ] ~data:[] () in
  check int "killed" 139 (expect_exit "div0" result);
  check Alcotest.bool "trap message" true (console_has console "killing pid")

let test_stack_growth () =
  (* deep recursion grows the stack across several demand-zero pages *)
  let deep =
    func "deep" ~subsys:"user" ~params:[ "n" ]
      [
        decl "pad0" (l "n");
        decl "pad1" (l "n" + num 1);
        decl "pad2" (l "n" + num 2);
        decl "pad3" (l "n" + num 3);
        when_ (l "n" ==. num 0) [ ret (num 0) ];
        ret (call "deep" [ l "n" - num 1 ] + l "pad0" - l "pad0");
      ]
  in
  let main =
    func "main" ~subsys:"user" ~params:[] [ ret (call "deep" [ num 600 ]) ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main; deep ] ~data:[] () in
  check int "deep recursion" 0 (expect_exit "stack" result)

let suite =
  [
    Alcotest.test_case "boot banner" `Quick test_boot_banner;
  ]
  @ List.map
      (fun (name, expect) ->
        Alcotest.test_case ("workload " ^ name) `Quick (test_workload (name, expect)))
      workload_expectations
  @ [
      Alcotest.test_case "fs clean after workloads" `Slow test_fs_clean_after_workloads;
      Alcotest.test_case "exit code propagates" `Quick test_exit_code_propagates;
      Alcotest.test_case "open missing -> ENOENT" `Quick test_open_missing_file;
      Alcotest.test_case "bad fd -> EBADF" `Quick test_bad_fd;
      Alcotest.test_case "unknown syscall -> ENOSYS" `Quick test_unknown_syscall;
      Alcotest.test_case "lseek + readback" `Quick test_lseek_and_readback;
      Alcotest.test_case "24KB file via indirect blocks" `Quick test_file_persistence_across_cache;
      Alcotest.test_case "read file shipped by mkfs" `Quick test_read_existing_file;
      Alcotest.test_case "fork COW isolation" `Quick test_fork_cow_isolation;
      Alcotest.test_case "waitpid ECHILD" `Quick test_wait_echild;
      Alcotest.test_case "pipe EOF and write-to-read-end" `Quick test_pipe_eof_and_epipe;
      Alcotest.test_case "brk grow/shrink/reject" `Quick test_brk_grow_shrink;
      Alcotest.test_case "user NULL deref killed" `Quick test_user_segfault_kills;
      Alcotest.test_case "user divide error killed" `Quick test_user_divide_error_kills;
      Alcotest.test_case "stack growth" `Quick test_stack_growth;
    ]

(* --- tests for the extended syscall surface --- *)

let kasm = [ Kfi_asm.Assembler.Align 4 ]

let test_mkdir_rmdir () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        when_ (u_mkdir (addr "s_dir") <>. num 0) [ ret (num 1) ];
        (* create a file inside, rmdir must refuse while non-empty *)
        decl "fd" (u_creat (addr "s_file"));
        when_ (l "fd" <. num 0) [ ret (num 2) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 3) ];
        when_ (u_rmdir (addr "s_dir") <>. neg (num 39)) [ ret (num 4) ]; (* ENOTEMPTY *)
        when_ (u_unlink (addr "s_file") <>. num 0) [ ret (num 5) ];
        when_ (u_rmdir (addr "s_dir") <>. num 0) [ ret (num 6) ];
        (* gone now *)
        when_ (u_rmdir (addr "s_dir") <>. neg (num 2)) [ ret (num 7) ];
        ret (num 0);
      ]
  in
  let data = ustr "s_dir" "/tmp/newdir" @ ustr "s_file" "/tmp/newdir/f" in
  let result, _, m, _ = run_custom ~funcs:[ main ] ~data () in
  check int "mkdir/rmdir" 0 (expect_exit "mkdir" result);
  (match Kfi_fsimage.Fsck.check (Kfi_isa.Devices.Disk.image (Kfi_isa.Machine.disk m)) with
   | Kfi_fsimage.Fsck.Clean -> ()
   | Kfi_fsimage.Fsck.Repairable ps -> Alcotest.failf "dirty fs: %s" (String.concat ";" ps)
   | Kfi_fsimage.Fsck.Unrecoverable w -> Alcotest.failf "broken fs: %s" w)

let test_hard_links () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_creat (addr "s_a"));
        when_ (l "fd" <. num 0) [ ret (num 1) ];
        sto32 (addr "buf") (num 424242);
        when_ (u_write (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 2) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 3) ];
        when_ (u_link (addr "s_a") (addr "s_b") <>. num 0) [ ret (num 4) ];
        (* linking over an existing name fails *)
        when_ (u_link (addr "s_a") (addr "s_b") <>. neg (num 17)) [ ret (num 5) ];
        (* unlink the original; content must survive through the link *)
        when_ (u_unlink (addr "s_a") <>. num 0) [ ret (num 6) ];
        set "fd" (u_open (addr "s_b") (num 0));
        when_ (l "fd" <. num 0) [ ret (num 7) ];
        when_ (u_read (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 8) ];
        when_ (lod32 (addr "buf") <>. num 424242) [ ret (num 9) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 10) ];
        when_ (u_unlink (addr "s_b") <>. num 0) [ ret (num 11) ];
        ret (num 0);
      ]
  in
  let data =
    ustr "s_a" "/tmp/linka" @ ustr "s_b" "/tmp/linkb"
    @ kasm @ [ Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 4 ]
  in
  let result, _, m, _ = run_custom ~funcs:[ main ] ~data () in
  check int "hard links" 0 (expect_exit "link" result);
  (match Kfi_fsimage.Fsck.check (Kfi_isa.Devices.Disk.image (Kfi_isa.Machine.disk m)) with
   | Kfi_fsimage.Fsck.Clean -> ()
   | Kfi_fsimage.Fsck.Repairable ps -> Alcotest.failf "dirty fs: %s" (String.concat ";" ps)
   | Kfi_fsimage.Fsck.Unrecoverable w -> Alcotest.failf "broken fs: %s" w)

let test_stat_fstat () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        when_ (u_stat (addr "s_motd") (addr "sbuf") <>. num 0) [ ret (num 1) ];
        when_ (lod32 (addr "sbuf") <>. num 2) [ ret (num 2) ];      (* mode_reg *)
        when_ (lod32 (addr "sbuf" + num 4) <>. num 21) [ ret (num 3) ]; (* size *)
        decl "fd" (u_open (addr "s_motd") (num 0));
        when_ (l "fd" <. num 0) [ ret (num 4) ];
        when_ (u_fstat (l "fd") (addr "sbuf") <>. num 0) [ ret (num 5) ];
        when_ (lod32 (addr "sbuf" + num 4) <>. num 21) [ ret (num 6) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 7) ];
        (* stat on a directory *)
        when_ (u_stat (addr "s_bin") (addr "sbuf") <>. num 0) [ ret (num 8) ];
        when_ (lod32 (addr "sbuf") <>. num 1) [ ret (num 9) ]; (* mode_dir *)
        ret (num 0);
      ]
  in
  let data =
    ustr "s_motd" "/etc/motd" @ ustr "s_bin" "/bin"
    @ kasm @ [ Kfi_asm.Assembler.Label "sbuf"; Kfi_asm.Assembler.Zeros 12 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "stat/fstat" 0 (expect_exit "stat" result)

let test_dup_and_dup2 () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_creat (addr "s_p"));
        when_ (l "fd" <. num 0) [ ret (num 1) ];
        decl "fd2" (u_dup (l "fd"));
        when_ (l "fd2" <=. l "fd") [ ret (num 2) ];
        (* both fds share the file offset *)
        sto32 (addr "buf") (num 7);
        when_ (u_write (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 3) ];
        when_ (u_write (l "fd2") (addr "buf") (num 4) <>. num 4) [ ret (num 4) ];
        when_ (u_lseek (l "fd") (num 0) (num 2) <>. num 8) [ ret (num 5) ];
        when_ (u_dup2 (l "fd") (num 9) <>. num 9) [ ret (num 6) ];
        when_ (u_close (num 9) <>. num 0) [ ret (num 7) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 8) ];
        when_ (u_close (l "fd2") <>. num 0) [ ret (num 9) ];
        when_ (u_unlink (addr "s_p") <>. num 0) [ ret (num 10) ];
        ret (num 0);
      ]
  in
  let data =
    ustr "s_p" "/tmp/dupf" @ kasm
    @ [ Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 4 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "dup/dup2" 0 (expect_exit "dup" result)

let test_o_append () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "fd" (u_creat (addr "s_p"));
        sto32 (addr "buf") (num 1);
        when_ (u_write (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 1) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 2) ];
        (* open O_WRONLY|O_APPEND and write; must land at offset 4 *)
        set "fd" (u_open (addr "s_p") (num 0x401));
        when_ (l "fd" <. num 0) [ ret (num 3) ];
        sto32 (addr "buf") (num 2);
        when_ (u_write (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 4) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 5) ];
        set "fd" (u_open (addr "s_p") (num 0));
        when_ (u_lseek (l "fd") (num 4) (num 0) <>. num 4) [ ret (num 6) ];
        when_ (u_read (l "fd") (addr "buf") (num 4) <>. num 4) [ ret (num 7) ];
        when_ (lod32 (addr "buf") <>. num 2) [ ret (num 8) ];
        when_ (u_close (l "fd") <>. num 0) [ ret (num 9) ];
        when_ (u_unlink (addr "s_p") <>. num 0) [ ret (num 10) ];
        ret (num 0);
      ]
  in
  let data =
    ustr "s_p" "/tmp/appf" @ kasm
    @ [ Kfi_asm.Assembler.Label "buf"; Kfi_asm.Assembler.Zeros 4 ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data () in
  check int "O_APPEND" 0 (expect_exit "append" result)

let test_getppid_yield () =
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        (* init's parent is the idle task (pid 0) *)
        when_ (u_getppid <>. num 0) [ ret (num 1) ];
        decl "pid" u_fork;
        when_ (l "pid" ==. num 0)
          [
            (* the child's parent is init (pid 1) *)
            when_ (u_getppid <>. num 1) [ do_ (u_exit (num 9)) ];
            do_ u_yield;
            do_ (u_exit (num 6));
          ];
        decl "st" (num 0);
        when_ (u_waitpid (l "pid") (addr_local "st") <>. l "pid") [ ret (num 2) ];
        when_ (l "st" <>. num 6) [ ret (num 3) ];
        ret (num 0);
      ]
  in
  let result, _, _, _ = run_custom ~funcs:[ main ] ~data:[] () in
  check int "getppid/yield" 0 (expect_exit "getppid" result)

let test_execve () =
  (* a helper binary at /bin/child42 exits with 42; main fork+execs it *)
  let child_main = func "main" ~subsys:"user" ~params:[] [ ret (num 42) ] in
  let child_bin = Kfi_workload.Ulib.build_binary ~funcs:[ child_main ] ~data:[] in
  let main =
    func "main" ~subsys:"user" ~params:[]
      [
        decl "pid" u_fork;
        when_ (l "pid" <. num 0) [ ret (num 1) ];
        when_ (l "pid" ==. num 0)
          [
            do_ (u_execve (addr "s_child"));
            (* reached only if exec failed *)
            do_ (u_exit (num 9));
          ];
        decl "st" (num 0);
        when_ (u_waitpid (l "pid") (addr_local "st") <>. l "pid") [ ret (num 2) ];
        when_ (l "st" <>. num 42) [ ret (num 3) ];
        (* exec of a missing path returns an error *)
        when_ (u_execve (addr "s_missing") >=. num 0) [ ret (num 4) ];
        ret (num 0);
      ]
  in
  let data = ustr "s_child" "/bin/child42" @ ustr "s_missing" "/bin/nonesuch" in
  let result, _, _, _ =
    run_custom ~extra_files:[ ("/bin/child42", child_bin) ] ~funcs:[ main ] ~data ()
  in
  check int "fork+execve" 0 (expect_exit "execve" result)

let suite =
  suite
  @ [
      Alcotest.test_case "mkdir/rmdir" `Quick test_mkdir_rmdir;
      Alcotest.test_case "hard links + link counts" `Quick test_hard_links;
      Alcotest.test_case "stat/fstat" `Quick test_stat_fstat;
      Alcotest.test_case "dup/dup2 share offset" `Quick test_dup_and_dup2;
      Alcotest.test_case "O_APPEND" `Quick test_o_append;
      Alcotest.test_case "getppid + yield" `Quick test_getppid_yield;
      Alcotest.test_case "fork + execve" `Quick test_execve;
    ]

(* Crash the kernel directly: corrupt sys_getpid's first bytes so it
   dereferences NULL, then run the syscall workload into the crash.
   Booted once, shared by the post-mortem tests. *)
let crashed_getpid =
  lazy
    (let files = default_files () in
     let disk_image = Kfi_fsimage.Mkfs.create files in
     let m, b = Kfi_kernel.Build.boot_machine ~workload:0 ~disk_image () in
     (* run to snapshot point first *)
     (match Kfi_isa.Machine.run m ~max_cycles:20_000_000 with
      | Kfi_isa.Machine.Snapshot_point -> ()
      | _ -> Alcotest.fail "no snapshot point");
     (* replace sys_getpid's first bytes with: mov eax,(0) — 8b 05 00 00 00 00 *)
     let addr = Stdlib.( land ) (Int32.to_int (Kfi_kernel.Build.symbol b "sys_getpid")) 0xFFFFFFFF in
     let pa = Stdlib.( - ) addr Kfi_kernel.Layout.page_offset in
     let cpu = Kfi_isa.Machine.cpu m in
     List.iteri
       (fun i byte -> Kfi_isa.Cpu.poke_phys cpu (Stdlib.( + ) pa i) byte)
       [ 0x8b; 0x05; 0x00; 0x00; 0x00; 0x00 ];
     (match Kfi_isa.Machine.run m ~max_cycles:20_000_000 with
      | Kfi_isa.Machine.Halted -> ()
      | r ->
        Alcotest.failf "expected crash halt, got %s"
          (match r with
           | Kfi_isa.Machine.Powered_off n -> Printf.sprintf "exit %d" n
           | Kfi_isa.Machine.Watchdog -> "watchdog"
           | Kfi_isa.Machine.Reset _ -> "reset"
           | _ -> "other"));
     (m, b, addr))

(* The oops dump of that crash carries what kdb showed *)
let test_kdb_postmortem () =
  let m, b, addr = Lazy.force crashed_getpid in
  let report =
    Kfi_trace.Forensics.oops ?dump:(Kfi_kernel.Build.read_dump m) b m
  in
  check Alcotest.bool "names crash site" true (console_has report "sys_getpid");
  check Alcotest.bool "registers shown" true (console_has report "eax: ");
  check Alcotest.bool "backtrace present" true (console_has report "Call Trace:");
  check Alcotest.bool "code at the crash eip, corruption included" true
    (console_has report (Printf.sprintf "  --> %08x:  8b 05 00 00 00 00" addr));
  check Alcotest.bool "task table present" true
    (console_has report "  pid  state         cr3       counter")

(* With the frame-pointer chain broken, the backtrace falls back to
   scanning the kernel stack, and every word it reports is kernel text *)
let test_backtrace_broken_chain () =
  let open Stdlib in
  let m, b, _ = Lazy.force crashed_getpid in
  let module F = Kfi_trace.Forensics in
  let cpu = Kfi_isa.Machine.cpu m in
  let ebp = cpu.Kfi_isa.Cpu.regs.(Kfi_isa.Insn.ebp) in
  let frames =
    Fun.protect
      ~finally:(fun () -> cpu.Kfi_isa.Cpu.regs.(Kfi_isa.Insn.ebp) <- ebp)
      (fun () ->
        cpu.Kfi_isa.Cpu.regs.(Kfi_isa.Insn.ebp) <- 0l;
        F.backtrace b m)
  in
  let tagged how = List.filter (fun f -> f.F.fr_how = how) frames in
  check int "one eip frame" 1 (List.length (tagged F.Eip));
  check Alcotest.bool "eip frame leads" true ((List.hd frames).F.fr_how = F.Eip);
  check int "no chain frames" 0 (List.length (tagged F.Frame));
  check Alcotest.bool "scan frames found" true (tagged F.Scan <> []);
  List.iter
    (fun f ->
      let a = Int32.to_int f.F.fr_eip land 0xFFFFFFFF in
      check Alcotest.bool (Printf.sprintf "%08x inside kernel text" a) true
        (a >= Kfi_kernel.Layout.kernel_text_base
        && a < Kfi_kernel.Layout.kernel_text_base + b.Kfi_kernel.Build.text_size))
    (tagged F.Scan)

(* Forensics lists what the flight recorder kept of the first boot
   instructions *)
let test_tracer () =
  let disk_image = Kfi_fsimage.Mkfs.create (default_files ()) in
  let m, b = Kfi_kernel.Build.boot_machine ~workload:0 ~disk_image () in
  let cpu = Kfi_isa.Machine.cpu m in
  Kfi_isa.Trace.set_level cpu.Kfi_isa.Cpu.trace Kfi_isa.Trace.Ring;
  for _ = 1 to 40 do
    Kfi_isa.Cpu.step cpu
  done;
  let s = Kfi_trace.Forensics.trace_listing ~n:40 b m in
  check Alcotest.bool "forty instructions" true
    (console_has s "last 40 of 40 recorded");
  check Alcotest.bool "kernel mode lines" true (console_has s " K ");
  check Alcotest.bool "boot entry call" true (console_has s "call");
  check Alcotest.bool "symbolized" true (console_has s "start_kernel+0x0/");
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check int "header, columns and forty instructions" 42 (List.length lines)

(* The binary search agrees with a linear scan of the function list on
   every address of the kernel image and just outside it *)
let test_find_function () =
  let open Stdlib in
  let b = Kfi_kernel.Build.build () in
  let base = Kfi_kernel.Layout.kernel_text_base in
  let linear a =
    let off = a - base in
    List.find_opt
      (fun f -> off >= f.Kfi_asm.Assembler.f_off && off < f.Kfi_asm.Assembler.f_off + f.Kfi_asm.Assembler.f_size)
      b.Kfi_kernel.Build.funcs
  in
  let mismatches = ref 0 in
  let probe a =
    if not (Option.equal ( == ) (Kfi_kernel.Build.find_function b (Int32.of_int a)) (linear a))
    then incr mismatches
  in
  for a = base - 16 to base + b.Kfi_kernel.Build.image_size + 16 do
    probe a
  done;
  List.iter probe [ 0; base - 1; 0xFFFFFFFF; Kfi_kernel.Layout.page_offset ];
  check int "addresses resolved differently" 0 !mismatches

let suite =
  suite
  @ [
      Alcotest.test_case "kdb post-mortem report" `Quick test_kdb_postmortem;
      Alcotest.test_case "backtrace over a broken frame chain" `Quick
        test_backtrace_broken_chain;
      Alcotest.test_case "execution tracer" `Quick test_tracer;
      Alcotest.test_case "find_function agrees with a linear scan" `Quick
        test_find_function;
    ]
