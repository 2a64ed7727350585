package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cresd process the benchmark started.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	drained chan struct{}
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time
// in these units on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// startDaemon starts cresd on a loopback port with the given store
// directory and waits until /healthz answers. It returns the daemon and
// the time from process start to the first healthy answer.
func startDaemon(bin, storeDir string, parallel int) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-store", storeDir, "-parallel", strconv.Itoa(parallel))
	cmd.Stderr = os.Stderr
	// cresd must not outlive a benchmark that dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting cresd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	lines := bufio.NewReader(out)
	first, err := lines.ReadString('\n')
	// Keep draining stdout so cresd never blocks on a full pipe; the
	// goroutine ends when cresd exits and closes it.
	go func() {
		io.Copy(io.Discard, lines)
		close(d.drained)
	}()
	const marker = "listening on "
	i := strings.Index(first, marker)
	if err != nil || i < 0 {
		d.kill()
		return nil, 0, fmt.Errorf("cresd did not report its address (got %q): %v", first, err)
	}
	d.base = strings.Fields(first[i+len(marker):])[0]
	client := &http.Client{Timeout: 10 * time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("cresd /healthz never answered: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks cresd to drain with POST /quit and waits for it to exit,
// killing it if it does not within ten seconds.
func (d *daemon) stop() error {
	client := &http.Client{Timeout: 10 * time.Second}
	if resp, err := client.Post(d.base+"/quit", "application/json", bytes.NewReader(nil)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	done := make(chan error, 1)
	go func() { <-d.drained; done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("cresd did not drain within 10s; killed")
	}
}

// kill ends cresd at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

// cpuTime reads cresd's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces: fields
	// count from after its closing parenthesis, where utime and stime
	// are the 12th and 13th.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS reads cresd's resident-set high-water mark (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
