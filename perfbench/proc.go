package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// Proc is one running auditserver.
type Proc struct {
	cmd  *exec.Cmd
	Base string
	log  *os.File
	done chan error
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serverArgs are the auditserver flags for a workload.
func serverArgs(w *Workload, addr, snapshot string) []string {
	args := []string{
		"-addr", addr, "-quiet",
		"-n", strconv.Itoa(w.N), "-seed", strconv.FormatInt(dataSeed, 10),
		"-auditors", w.Family,
		"-session-max-live", strconv.Itoa(w.MaxLive),
	}
	if snapshot != "" {
		args = append(args, "-session-snapshot", snapshot)
	}
	return args
}

// startServer execs the binary and waits until /readyz answers 200,
// returning the elapsed time from exec.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*Proc, time.Duration, error) {
	addr := args[1]
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &Proc{cmd: cmd, Base: "http://" + addr, log: lf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-p.done:
			p.done <- err
			lf.Close()
			return nil, 0, fmt.Errorf("auditserver exited before ready (%v); see %s", err, logPath)
		case <-ctx.Done():
			p.kill()
			return nil, 0, ctx.Err()
		default:
		}
		resp, err := client.Get(p.Base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop shuts the server down gracefully (SIGTERM: drain, then flush any
// session snapshot) and waits for it to exit.
func (p *Proc) stop() error {
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("auditserver did not stop within 30s of SIGTERM")
	}
}

// kill stops the server at once and waits for it.
func (p *Proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

// cpuTime is the process's user+system CPU time so far.
func (p *Proc) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// memory reads one of the process's /proc status sizes ("VmRSS",
// "VmHWM") in bytes.
func (p *Proc) memory(field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// sampleRSS samples the process's resident set every interval until
// stop is closed, then sends the samples on the returned channel.
func (p *Proc) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []int64 {
	out := make(chan []int64, 1)
	go func() {
		var samples []int64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if v, err := p.memory("VmRSS"); err == nil {
				samples = append(samples, v)
			}
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}
