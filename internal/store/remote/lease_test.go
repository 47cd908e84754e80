package remote

import (
	"errors"
	"testing"
	"time"
)

// TestAcquireLeaseRefusesUnrecordableOwners pins that an owner the lease
// record would not read back — a line break would end the owner line and
// could forge the next one, white space at either end is trimmed — fails
// typed, before anything is written, while an owner with inner spaces is
// recorded and read back as given.
func TestAcquireLeaseRefusesUnrecordableOwners(t *testing.T) {
	mem := NewMemStore()
	key := LeaseKey("runs/owners")
	for _, owner := range []string{"a ", " a", "\tdaemon", "x\ntoken evil", "host\r", "a\rb", " host"} {
		if _, err := AcquireLease(mem, key, LeaseConfig{Owner: owner}); !errors.Is(err, ErrBadLeaseOwner) {
			t.Fatalf("owner %q: acquire = %v, want ErrBadLeaseOwner", owner, err)
		}
		if _, err := mem.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("owner %q: a refused acquire left a record (%v)", owner, err)
		}
	}
	const owner = "host a:12 (pid 7)"
	l, err := AcquireLease(mem, key, LeaseConfig{Owner: owner, Now: func() time.Time { return time.Unix(5, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	data, err := mem.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if got, token, expires := parseLease(data); got != owner || token != l.token || expires != time.Unix(5, 0).Add(5*time.Minute).UnixNano() {
		t.Fatalf("record reads back as (%q, %q, %d)", got, token, expires)
	}
}

// FuzzLeaseRecord pins the lease wire form: parseLease never panics on any
// bytes, and every record leaseRecord writes for a recordable owner and
// token reads back to its owner, token and expiry.
func FuzzLeaseRecord(f *testing.F) {
	f.Add([]byte("owner a\ntoken 00ff\nexpires 12\n"), "a ", "00ff", int64(12))
	f.Add([]byte("owner x\ntoken evil\ntoken 1\nexpires -1\n"), "x\ntoken evil", "1", int64(-1))
	f.Add([]byte("expires 99999999999999999999\nowner\n"), "", "", int64(1)<<62)
	f.Add([]byte(""), "host:1", "0123456789abcdef0123456789abcdef", int64(-1)<<63)
	f.Fuzz(func(t *testing.T, data []byte, owner, token string, expires int64) {
		parseLease(data)
		if !recordable(owner) || !recordable(token) {
			return
		}
		gotOwner, gotToken, gotExpires := parseLease(leaseRecord(owner, token, expires))
		if gotOwner != owner || gotToken != token || gotExpires != expires {
			t.Fatalf("leaseRecord(%q, %q, %d) reads back as (%q, %q, %d)", owner, token, expires, gotOwner, gotToken, gotExpires)
		}
	})
}
