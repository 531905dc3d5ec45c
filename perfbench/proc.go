package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// prSetChildSubreaper makes orphaned descendants (shard children whose
// parent died) re-parent to this process, so it can reap them.
const prSetChildSubreaper = 36

func becomeSubreaper() error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, 1, 0); errno != 0 {
		return fmt.Errorf("prctl(PR_SET_CHILD_SUBREAPER): %v", errno)
	}
	return nil
}

// proc is one server process. A group leader runs in its own process
// group, so it and every child it spawns can be signalled and accounted
// for together.
type proc struct {
	cmd   *exec.Cmd
	log   *os.File
	group bool
	done  chan struct{}
	err   error
}

// startProc starts bin, in a new process group led by it when group is
// set, with its output going to logPath.
func startProc(bin string, args []string, logPath string, group bool) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: group}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, log: logf, group: group, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the server to drain (SIGTERM), kills it (and its group) if it
// has not exited within grace, and reaps every process of the group. It
// returns an error when any process of the group outlived the server.
func (p *proc) stop(grace time.Duration) error {
	defer p.log.Close()
	pgid := p.pid()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	var errs []error
	select {
	case <-p.done:
	case <-time.After(grace):
		errs = append(errs, fmt.Errorf("server %d did not exit within %v of SIGTERM", pgid, grace))
		_ = p.cmd.Process.Kill()
		if p.group {
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
		}
		<-p.done
	}
	if !p.group {
		return errors.Join(errs...)
	}
	reapGroup(pgid)
	if syscall.Kill(-pgid, 0) == nil {
		errs = append(errs, fmt.Errorf("a process of server group %d outlived the server", pgid))
		killGroup(pgid)
	}
	return errors.Join(errs...)
}

// kill ends the server (and its group) at once, for error paths.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
	if p.group {
		killGroup(p.pid())
	}
}

// killGroup SIGKILLs every process of the group and reaps them, giving up
// after five seconds.
func killGroup(pgid int) {
	_ = syscall.Kill(-pgid, syscall.SIGKILL)
	deadline := time.Now().Add(5 * time.Second)
	for syscall.Kill(-pgid, 0) == nil && time.Now().Before(deadline) {
		reapGroup(pgid)
		time.Sleep(5 * time.Millisecond)
	}
}

// reapGroup collects exited group members re-parented to this process.
func reapGroup(pgid int) {
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-pgid, &ws, syscall.WNOHANG, nil)
		if err != nil || pid <= 0 {
			return
		}
	}
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTicks = 100

// groupCPU sums utime+stime, in seconds, over every live process of the
// process group.
func groupCPU(pgid int) (float64, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return 0, err
	}
	var ticks uint64
	for _, e := range entries {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		raw, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // exited between the listing and the read
		}
		// Fields after the parenthesised command name, which may hold spaces:
		// state(3) ppid(4) pgrp(5) ... utime(14) stime(15).
		s := string(raw)
		rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(rest) < 13 || rest[2] != strconv.Itoa(pgid) {
			continue
		}
		ut, _ := strconv.ParseUint(rest[11], 10, 64)
		st, _ := strconv.ParseUint(rest[12], 10, 64)
		ticks += ut + st
	}
	return float64(ticks) / clockTicks, nil
}
