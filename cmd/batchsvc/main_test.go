package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// Shutdown smoke test for distributed mode: the real binary with
// -distribute must fan SIGTERM out to its shard subprocesses and exit with
// every child reaped — no zombies, no survivors holding the data dir.

// freePort reserves a loopback port and releases it for the server.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// shardPortBase returns a -shard-port-base for the given number of shard
// subprocesses. Shard i binds base+i, so it picks a base whose ports
// base+1..base+shards all bind at once, then releases them together. This
// narrows the window in which another process can take one of them before
// the shards bind; it cannot close it.
func shardPortBase(t *testing.T, shards int) int {
	t.Helper()
	for range 20 {
		base := freePort(t)
		var held []net.Listener
		for i := 1; i <= shards; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				break
			}
			held = append(held, ln)
		}
		for _, ln := range held {
			ln.Close()
		}
		if len(held) == shards {
			return base
		}
	}
	t.Fatalf("no port base with %d free ports above it", shards)
	return 0
}

// shardProcs scans /proc for live processes running bin in shard-server
// mode and returns their pids.
func shardProcs(t *testing.T, bin string) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue // exited mid-scan
		}
		args := strings.Split(string(bytes.TrimRight(raw, "\x00")), "\x00")
		if len(args) > 0 && args[0] == bin {
			for _, a := range args[1:] {
				if a == "-shard-server" {
					pids = append(pids, pid)
					break
				}
			}
		}
	}
	return pids
}

func TestDistributeShutdownLeavesNoZombies(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "batchsvc")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	apiPort := freePort(t)
	base := shardPortBase(t, 2)
	cmd := exec.Command(bin,
		"-distribute", "-shards", "3",
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-shard-port-base", strconv.Itoa(base),
		"-data-dir", filepath.Join(dir, "data"),
		"-parallelism", "2",
		"-shutdown-timeout", "15s",
	)
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-exited
		}
	}()

	// The router answers once every shard is spawned, pinged, and synced.
	statsURL := fmt.Sprintf("http://127.0.0.1:%d/api/stats", apiPort)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(statsURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-exited:
			t.Fatalf("batchsvc exited before serving: %v\n%s", err, logs.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("batchsvc never answered %s\n%s", statsURL, logs.Bytes())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// -shards 3 -distribute: shard 0 is in-process, shards 1-2 are
	// subprocesses.
	pids := shardProcs(t, bin)
	if len(pids) != 2 {
		t.Fatalf("found %d shard-server processes, want 2 (pids %v)\n%s", len(pids), pids, logs.Bytes())
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("batchsvc exit after SIGTERM: %v\n%s", err, logs.Bytes())
		}
	case <-time.After(25 * time.Second):
		t.Fatalf("batchsvc did not exit within 25s of SIGTERM\n%s", logs.Bytes())
	}

	// Every shard subprocess is gone with the parent: none still running,
	// and none left as a zombie (a zombie keeps its /proc entry).
	if pids := shardProcs(t, bin); len(pids) != 0 {
		t.Fatalf("shard-server processes survived shutdown: pids %v\n%s", pids, logs.Bytes())
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Fatalf("pid %d still signalable after shutdown", pid)
		}
	}
}
