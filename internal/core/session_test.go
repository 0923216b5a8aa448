package core

import (
	"bytes"
	"strings"
	"testing"
)

// TestSerialFallbackReasonRecordedAndLogged checks a session that asks
// for sharding but runs serial says so — in the result and on the log
// stream — while sessions that train as configured carry no reason.
func TestSerialFallbackReasonRecordedAndLogged(t *testing.T) {
	var log bytes.Buffer
	p := Plan{Benchmarks: []string{"DC-AI-C4", "DC-AI-C16"}, Session: QuasiEntireSession, Epochs: 1, Seed: 7, Shards: 3, Log: &log}
	asked := sessionsOf(t, p)
	if res := asked[0]; res.Shards != 0 {
		t.Fatalf("DC-AI-C4 reported Shards=%d, want 0", res.Shards)
	} else if !strings.Contains(res.FallbackReason, "shards=3") {
		t.Fatalf("FallbackReason %q does not name the requested shard count", res.FallbackReason)
	}
	if out := log.String(); !strings.Contains(out, "DC-AI-C4: serial fallback:") || strings.Contains(out, "DC-AI-C16: serial fallback:") {
		t.Fatalf("log %q: want the serial-fallback line for DC-AI-C4 alone", out)
	}
	if sharded := asked[1]; sharded.Shards != 3 || sharded.FallbackReason != "" {
		t.Fatalf("sharded session reported Shards=%d reason=%q, want 3 and empty", sharded.Shards, sharded.FallbackReason)
	}

	p.Shards = 0
	if serial := sessionsOf(t, p)[0]; serial.FallbackReason != "" {
		t.Fatalf("serial-by-config session carries reason %q, want empty", serial.FallbackReason)
	}
}
