package main

import (
	"bytes"
	"strings"
	"testing"

	"tetriswrite/internal/version"
)

func TestVersion(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-version"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(out.String()), version.String("pcmsimw"); got != want {
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

func TestParseFlags(t *testing.T) {
	var errb bytes.Buffer
	opt, err := parseFlags([]string{"-broker", "b:1", "-name", "w1", "-slots", "3"}, &errb)
	if err != nil {
		t.Fatal(err)
	}
	w := opt.worker
	if w.Broker != "b:1" || w.Name != "w1" || w.Slots != 3 || w.Version != version.String("pcmsimw") {
		t.Errorf("worker config = %+v", w)
	}
	opt, err = parseFlags(nil, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if opt.worker.Broker != "localhost:7077" || opt.worker.Name == "" || opt.worker.Slots < 1 {
		t.Errorf("default worker config = %+v", opt.worker)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-broker", ""}, "-broker"},
		{[]string{"-name", ""}, "-name"},
		{[]string{"-slots", "0"}, "-slots"},
		{[]string{"-slots", "-2"}, "-slots"},
	} {
		var errb bytes.Buffer
		_, err := parseFlags(tc.args, &errb)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.flag)
		}
		// run reports the same error before dialling the broker.
		var out bytes.Buffer
		if rerr := run(tc.args, &out, &errb); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%v: run returned %v, want %v", tc.args, rerr, err)
		}
	}
}
