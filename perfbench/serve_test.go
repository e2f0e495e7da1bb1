package main

import (
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestServerCPUReadsProcStat checks the /proc parse against getrusage
// for this very process, after burning enough CPU to see a difference
// well above the 10 ms tick.
func TestServerCPUReadsProcStat(t *testing.T) {
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: &exec.Cmd{Process: self}}
	for c0 := cpuTime(); cpuTime()-c0 < 200*time.Millisecond; {
		probeBurst()
	}
	got, err := s.cpu()
	if err != nil {
		t.Fatal(err)
	}
	want := cpuTime()
	if d := want - got; d < -50*time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("/proc says %v of CPU, getrusage %v", got, want)
	}
}
