package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// faultScript holds one fault of each kind, due within the session's
// first emulated hours.
const faultScript = `at 1h crash site=Miami
at 2h degrade site=Tampa factor=0.5 for=2h
at 2h forecast-error zone=US-FL-ORL factor=2 for=2h
at 3h scale-out site=Orlando device=A2 capacity=4000 count=2
at 4h recover site=Miami
`

// recipes are the session's deployments; the last one is undeployed.
var recipes = []string{
	`{"name":"cam-miami","model":"ResNet50","source":"Miami","slo_ms":20,"rate_per_sec":10}`,
	`{"name":"det-tampa","model":"YOLOv4","source":"Tampa","slo_ms":40,"rate_per_sec":2}`,
	`{"name":"sci-orlando","model":"Sci","source":"Orlando","slo_ms":40,"rate_per_sec":1}`,
	`{"name":"eff-jax","model":"EfficientNetB0","source":"Jacksonville","slo_ms":30,"rate_per_sec":20}`,
}

// session drives two carbonedge services over 127.0.0.1. The first
// loads the fault script at startup, takes the deployments and a batch,
// and runs until every fault is due by its own clock; then every
// endpoint is scraped, one wrong method sent and one deployment
// undeployed. Its state is moved into a second, fresh service, which
// must restore it and tick on. Waits read the orchestrator clock ("now"
// in /api/v1/metrics).
func (r *runner) session(bin string) error {
	faults := filepath.Join(r.work, "faults.txt")
	if err := os.WriteFile(faults, []byte(faultScript), 0o644); err != nil {
		return err
	}
	args := []string{"-region", "florida", "-tick", "20ms", "-traffic", "diurnal", "-rps", "40"}
	a, err := r.start("carbonedge-a", bin, append(args, "-faults", faults)...)
	if err != nil {
		return err
	}
	defer a.stop()
	start, err := a.now()
	if err != nil {
		return err
	}
	for _, rec := range recipes {
		if _, err := a.call("POST", "/api/v1/deployments", rec, http.StatusAccepted); err != nil {
			return err
		}
	}
	if _, err := a.call("POST", "/api/v1/place", "", http.StatusOK); err != nil {
		return err
	}
	if _, err := a.call("POST", "/api/v1/faults", `{"at":"1h","kind":"degrade","site":"Jacksonville","factor":0.8,"for":"1h"}`, http.StatusAccepted); err != nil {
		return err
	}
	if err := a.waitClock(start.Add(8 * time.Hour)); err != nil {
		return err
	}
	for _, p := range []string{
		"/api/v1/deployments", "/api/v1/deployments/cam-miami", "/api/v1/metrics",
		"/api/v1/traffic", "/api/v1/placement", "/api/v1/faults", "/api/v1/obs", "/metrics",
	} {
		if _, err := a.call("GET", p, "", http.StatusOK); err != nil {
			return err
		}
	}
	if _, err := a.call("PATCH", "/api/v1/place", "", http.StatusMethodNotAllowed); err != nil {
		return err
	}
	if _, err := a.call("DELETE", "/api/v1/deployments/eff-jax", "", http.StatusNoContent); err != nil {
		return err
	}
	state, err := a.call("GET", "/api/v1/state", "", http.StatusOK)
	if err != nil {
		return err
	}
	if err := a.stop(); err != nil {
		return err
	}

	b, err := r.start("carbonedge-b", bin, args...)
	if err != nil {
		return err
	}
	defer b.stop()
	if _, err := b.call("PUT", "/api/v1/state", string(state), http.StatusOK); err != nil {
		return err
	}
	restored, err := b.now()
	if err != nil {
		return err
	}
	if err := b.waitClock(restored.Add(2 * time.Hour)); err != nil {
		return err
	}
	if _, err := b.call("GET", "/api/v1/deployments", "", http.StatusOK); err != nil {
		return err
	}
	return b.stop()
}

// service is one running carbonedge.
type service struct {
	name, base string
	cmd        *exec.Cmd
	log        *os.File
	done       chan error
	stopped    bool
}

// start runs bin on a free loopback port and waits until its API
// answers.
func (r *runner) start(name, bin string, args ...string) (*service, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd, log, err := r.command(name, append([]string{bin, "-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	s := &service{name: name, base: "http://" + addr, cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := s.now(); err == nil {
			return s, nil
		}
		select {
		case err := <-s.done:
			s.stopped = true
			log.Close()
			return nil, fmt.Errorf("%s exited before serving: %v (output in %s)", name, err, log.Name())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s: API not up after 30 s (output in %s)", name, log.Name())
		}
	}
}

// stop interrupts the service, which shuts down cleanly and writes its
// coverage counters, and waits for it.
func (s *service) stop() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	defer s.log.Close()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("%s: %v (output in %s)", s.name, err, s.log.Name())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // the timeout below is the error reported
		return fmt.Errorf("%s: no clean shutdown within 30 s", s.name)
	}
}

// call sends one request and requires the status want.
func (s *service) call(method, path, body string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewBufferString(body))
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s %s: status %d, want %d: %s", s.name, method, path, resp.StatusCode, want, b)
	}
	return b, nil
}

// now reads the orchestrator clock.
func (s *service) now() (time.Time, error) {
	b, err := s.call("GET", "/api/v1/metrics", "", http.StatusOK)
	if err != nil {
		return time.Time{}, err
	}
	var m struct {
		Now string `json:"now"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return time.Time{}, err
	}
	return time.Parse("2006-01-02 15:04:05.999999999 -0700 MST", m.Now)
}

// waitClock polls the orchestrator clock until it reaches t.
func (s *service) waitClock(t time.Time) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		now, err := s.now()
		if err != nil {
			return err
		}
		if !now.Before(t) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: clock at %s, still short of %s after 60 s", s.name, now, t)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
