package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one child sit-server process. The same value restarts the
// server on the same address and data directory after a kill, so a follower
// pointed at it keeps working.
type serverProc struct {
	bin     string
	args    []string
	addr    string
	logPath string
	cmd     *exec.Cmd
	done    chan struct{} // closed once cmd has been waited for
}

// freeAddr asks the kernel for an unused loopback port. The port is released
// before the server binds it; a lost race fails the start loudly.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	return addr, nil
}

// newServerProc prepares (but does not start) a durable server: journaled
// into dataDir with an fsync on every write and request logging off.
func newServerProc(bin, dataDir, logPath string, extra ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data-dir", dataDir, "-fsync", "always", "-quiet"}, extra...)
	return &serverProc{bin: bin, args: args, addr: addr, logPath: logPath}, nil
}

func (p *serverProc) url() string { return "http://" + p.addr }

// start launches the process and waits until /healthz answers 200.
func (p *serverProc) start() error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server log: %w", err)
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server shares the machine's two cores with the load generator;
	// it dies with the benchmark if the benchmark is killed.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", p.bin, err)
	}
	p.cmd = cmd
	p.done = make(chan struct{})
	go func() {
		_ = cmd.Wait() // a killed server's exit status is expected
		logf.Close()
		close(p.done)
	}()
	return p.waitReady(60 * time.Second)
}

// waitReady polls /healthz every millisecond until it answers 200.
func (p *serverProc) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("server %s exited during start (see %s)", p.addr, p.logPath)
		default:
		}
		resp, err := hc.Get(p.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server %s not ready after %v (see %s)", p.addr, limit, p.logPath)
}

func (p *serverProc) running() bool {
	if p.cmd == nil {
		return false
	}
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits until the process is reaped.
func (p *serverProc) kill() {
	if !p.running() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // an already exiting process is fine
	<-p.done
}

// stop asks for a graceful shutdown and falls back to SIGKILL.
func (p *serverProc) stop() {
	if !p.running() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.kill()
	}
}

// hwmMB reads the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
