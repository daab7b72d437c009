package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	hth "repro"
)

// syncBuffer is a log sink the test can read while run writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeSubmitDrain starts the binary's run on a free port, submits
// one asm upload and waits for its verdict, then signals a stop and
// expects a clean drain.
func TestServeSubmitDrain(t *testing.T) {
	var logs syncBuffer
	stop := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, stop, &logs) }()

	listening := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		select {
		case code := <-exit:
			t.Fatalf("run exited %d before listening:\n%s", code, logs.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line within 10s:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
		if m := listening.FindStringSubmatch(logs.String()); m != nil {
			addr = m[1]
		}
	}

	// A program that execs a hard-coded path: one LOW check_execve.
	spec, err := json.Marshal(hth.JobSpec{
		Tenant: "serve-test",
		Programs: map[string]string{
			"/bin/ls":     ".text\n_start:\n    mov ebx, 0\n    mov eax, 1\n    int 0x80\n",
			"/bin/trojan": ".text\n_start:\n    mov ebx, prog\n    mov ecx, 0\n    mov edx, 0\n    mov eax, 11\n    int 0x80\n    hlt\n.data\nprog: .asciz \"/bin/ls\"\n",
		},
		Path: "/bin/trojan",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/jobs?wait=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var res hth.JobResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Status != "done" || res.Verdict != "LOW" {
		t.Fatalf("wait=1: code %d, result %+v", resp.StatusCode, res)
	}
	if len(res.Warnings) != 1 || res.Warnings[0].Rule != "check_execve" {
		t.Fatalf("warnings = %+v, want one check_execve", res.Warnings)
	}

	stop <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d, want 0:\n%s", code, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("no exit within 30s of the stop signal:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained clean") {
		t.Fatalf("log lacks \"drained clean\":\n%s", logs.String())
	}
}
