package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Boot and shutdown tests for distributed mode, against the real binary:
// a taken -addr fails the boot before any shard process is spawned, the
// first connection accepted during boot is answered by a healthy service,
// and SIGTERM fans out to the shard subprocesses and exits with every child
// reaped — no zombies, no survivors holding the data dir.

var (
	binOnce sync.Once
	binDir  string
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// batchsvcBin builds the binary once per test process and returns its
// path.
func batchsvcBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "batchsvc-test-"); binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "batchsvc")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			binErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// batchsvc is one running batchsvc process; its logs may be read once it
// has exited.
type batchsvc struct {
	cmd    *exec.Cmd
	logs   bytes.Buffer
	exited chan error
}

// startBatchsvc runs the binary with args and kills it at cleanup if it is
// still running.
func startBatchsvc(t *testing.T, args ...string) *batchsvc {
	t.Helper()
	b := &batchsvc{cmd: exec.Command(batchsvcBin(t), args...), exited: make(chan error, 1)}
	b.cmd.Stdout = &b.logs
	b.cmd.Stderr = &b.logs
	if err := b.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { b.exited <- b.cmd.Wait() }()
	t.Cleanup(func() {
		if b.cmd.ProcessState == nil {
			b.cmd.Process.Kill()
			<-b.exited
		}
	})
	return b
}

// stop sends SIGTERM and waits for a clean exit.
func (b *batchsvc) stop(t *testing.T) {
	t.Helper()
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-b.exited:
		if err != nil {
			t.Fatalf("batchsvc exit after SIGTERM: %v\n%s", err, b.logs.Bytes())
		}
	case <-time.After(25 * time.Second):
		b.cmd.Process.Kill()
		<-b.exited
		t.Fatalf("batchsvc did not exit within 25s of SIGTERM\n%s", b.logs.Bytes())
	}
}

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
	bin := batchsvcBin(t)
	apiPort := freePort(t)
	base := shardPortBase(t, 2)
	b := startBatchsvc(t,
		"-distribute", "-shards", "3",
		"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
		"-shard-port-base", strconv.Itoa(base),
		"-data-dir", filepath.Join(t.TempDir(), "data"),
		"-parallelism", "2",
		"-shutdown-timeout", "15s",
	)

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
		case err := <-b.exited:
			t.Fatalf("batchsvc exited before serving: %v\n%s", err, b.logs.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("batchsvc never answered %s", statsURL)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// -shards 3 -distribute: shard 0 is in-process, shards 1-2 are
	// subprocesses.
	pids := shardProcs(t, bin)
	if len(pids) != 2 {
		t.Fatalf("found %d shard-server processes, want 2 (pids %v)", len(pids), pids)
	}

	b.stop(t)

	// Every shard subprocess is gone with the parent: none still running,
	// and none left as a zombie (a zombie keeps its /proc entry).
	if pids := shardProcs(t, bin); len(pids) != 0 {
		t.Fatalf("shard-server processes survived shutdown: pids %v\n%s", pids, b.logs.Bytes())
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); err == nil {
			t.Fatalf("pid %d still signalable after shutdown", pid)
		}
	}
}

// TestDistributeTakenAddrFailsBeforeSpawn boots a distributed service on
// an API port another socket holds. The public socket is bound first, so
// the boot fails at once with the listen error: no shard process is ever
// spawned and no WAL is opened, so the data dir is never made.
func TestDistributeTakenAddrFailsBeforeSpawn(t *testing.T) {
	bin := batchsvcBin(t)
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	data := filepath.Join(t.TempDir(), "data")
	start := time.Now()
	b := startBatchsvc(t,
		"-distribute", "-shards", "2",
		"-addr", held.Addr().String(),
		"-shard-port-base", strconv.Itoa(shardPortBase(t, 1)),
		"-data-dir", data,
	)
	var seen []int
	var exitErr error
	for exited := false; !exited; {
		select {
		case exitErr = <-b.exited:
			exited = true
		case <-time.After(time.Millisecond):
			if time.Since(start) > time.Second {
				t.Fatalf("batchsvc still running %v after start on a taken -addr", time.Since(start))
			}
		}
		seen = append(seen, shardProcs(t, bin)...)
	}
	elapsed := time.Since(start)
	logs := b.logs.String()
	if exitErr == nil {
		t.Fatalf("batchsvc exited 0 on a taken -addr\n%s", logs)
	}
	if elapsed > time.Second {
		t.Fatalf("batchsvc took %v to fail on a taken -addr, want under 1s\n%s", elapsed, logs)
	}
	if !strings.Contains(logs, "address already in use") {
		t.Fatalf("exit logs lack the listen error\n%s", logs)
	}
	if len(seen) != 0 || strings.Contains(logs, "shard ready") {
		t.Fatalf("a shard process ran before the listen failed (pids %v)\n%s", seen, logs)
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Fatalf("data dir %s touched before the listen failed (stat: %v)\n%s", data, err, logs)
	}
}

// TestDistributeFirstConnectionAnswersHealthy retries only the connect to
// a booting distributed service, then sends GET /api/stats on the first
// connection accepted: the request waits out the boot and is answered by a
// service that is whole, with every shard reachable, never a partial one.
func TestDistributeFirstConnectionAnswersHealthy(t *testing.T) {
	apiAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	b := startBatchsvc(t,
		"-distribute", "-shards", "2",
		"-addr", apiAddr,
		"-shard-port-base", strconv.Itoa(shardPortBase(t, 1)),
		"-parallelism", "2",
	)
	deadline := time.Now().Add(30 * time.Second)
	var conn net.Conn
	for {
		var err error
		if conn, err = net.Dial("tcp", apiAddr); err == nil {
			break
		}
		select {
		case err := <-b.exited:
			t.Fatalf("batchsvc exited before accepting a connection: %v\n%s", err, b.logs.Bytes())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connection accepted on %s: %v", apiAddr, err)
		}
		time.Sleep(time.Millisecond)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	req, err := http.NewRequest(http.MethodGet, "http://"+apiAddr+"/api/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), req)
	if err != nil {
		t.Fatalf("reading the first stats reply: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		Health struct {
			Degraded bool `json:"degraded"`
		} `json:"health"`
		Partial bool `json:"partial"`
		Shards  []struct {
			Error string `json:"error"`
		} `json:"shards"`
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first stats reply: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Partial || st.Health.Degraded || len(st.Shards) != 2 {
		t.Fatalf("first stats reply: partial %v, degraded %v, %d shards; want whole, healthy, 2 shards",
			st.Partial, st.Health.Degraded, len(st.Shards))
	}
	for i, sh := range st.Shards {
		if sh.Error != "" {
			t.Fatalf("first stats reply: shard %d unreachable: %s", i, sh.Error)
		}
	}
	b.stop(t)
}
