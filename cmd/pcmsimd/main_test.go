package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tetriswrite/internal/runner"
	"tetriswrite/internal/version"
)

func TestVersion(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(out.String()), version.String("pcmsimd"); got != want {
		t.Errorf("-version printed %q, want %q", got, want)
	}
}

func TestUnknownFlagRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-bogus"}, &out, &errb); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(errb.String(), "bogus") {
		t.Errorf("usage output does not name the flag: %q", errb.String())
	}
}

// TestParseFlagsDefaults: the defaults reach the broker config as
// documented, and -jitter 0 stays zero (no jitter) instead of being
// replaced by the default.
func TestParseFlagsDefaults(t *testing.T) {
	var errb bytes.Buffer
	opt, err := parseFlags(nil, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if opt.rpcAddr != ":7077" || opt.httpAddr != ":7070" || opt.drainTimeout != 30*time.Second {
		t.Errorf("addresses/drain = %q %q %v", opt.rpcAddr, opt.httpAddr, opt.drainTimeout)
	}
	b := opt.broker
	want := runner.Backoff{Base: 500 * time.Millisecond, Max: 10 * time.Second, Jitter: 0.2}
	if b.LeaseTTL != 5*time.Second || b.Poll != 200*time.Millisecond || b.Retry != want ||
		b.JournalPath != "pcmsimd.journal.jsonl" {
		t.Errorf("broker config = %+v", b)
	}

	opt, err = parseFlags([]string{"-jitter", "0", "-backoff", "1s", "-max-backoff", "1s", "-drain-timeout", "0"}, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if want := (runner.Backoff{Base: time.Second, Max: time.Second}); opt.broker.Retry != want {
		t.Errorf("-jitter 0: Retry = %+v, want %+v", opt.broker.Retry, want)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-lease", "0s"}, "-lease"},
		{[]string{"-lease", "-1s"}, "-lease"},
		{[]string{"-poll", "0s"}, "-poll"},
		{[]string{"-backoff", "0s"}, "-backoff"},
		{[]string{"-backoff", "-5ms"}, "-backoff"},
		{[]string{"-max-backoff", "0s"}, "-max-backoff"},
		{[]string{"-backoff", "2s", "-max-backoff", "1s"}, "-max-backoff"},
		{[]string{"-jitter", "-0.1"}, "-jitter"},
		{[]string{"-jitter", "1.5"}, "-jitter"},
		{[]string{"-drain-timeout", "-1s"}, "-drain-timeout"},
	} {
		var errb bytes.Buffer
		_, err := parseFlags(tc.args, &errb)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.flag)
		}
		// run reports the same error before touching the network.
		var out bytes.Buffer
		if rerr := run(tc.args, &out, &errb); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%v: run returned %v, want %v", tc.args, rerr, err)
		}
	}
}
