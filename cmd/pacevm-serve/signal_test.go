package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// signalChildEnv, when set, turns this test binary into a pacevm-serve
// daemon listening on the address it names.
const signalChildEnv = "PACEVM_SERVE_SIGNAL_CHILD_ADDR"

// TestSIGTERMRightAfterHealthz sends SIGTERM the moment /v1/healthz
// first answers. The signal handler must already be installed by then,
// so the daemon drains clean and exits 0 instead of dying to the default
// disposition.
func TestSIGTERMRightAfterHealthz(t *testing.T) {
	if addr := os.Getenv(signalChildEnv); addr != "" {
		opt := baseOptions(t)
		opt.addr = addr
		if err := run(opt); err != nil {
			fmt.Fprintln(os.Stderr, "pacevm-serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	// Reserve a loopback port so the health probe can start before the
	// daemon prints its address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestSIGTERMRightAfterHealthz$")
	cmd.Env = append(os.Environ(), signalChildEnv+"="+addr)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	cli := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := cli.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			<-done
			t.Fatalf("daemon never became healthy: %v\n%s", err, out.String())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("daemon exited with %v after SIGTERM\n%s", exit, out.String())
		}
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("daemon did not exit within 30s of SIGTERM\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained clean") {
		t.Fatalf("daemon exited 0 without a clean drain:\n%s", out.String())
	}
}
