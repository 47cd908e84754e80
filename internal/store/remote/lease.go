package remote

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrLeaseHeld is returned when another writer holds a live lease on the
// contested key. The error message names the holder.
var ErrLeaseHeld = errors.New("remote: writer lease held")

// ErrBadLeaseOwner is returned by AcquireLease for an owner the lease record
// cannot carry: one with a line break, which would end its line early, or
// with leading or trailing white space, which the parser trims.
var ErrBadLeaseOwner = errors.New("remote: lease owner cannot be recorded")

// LeaseConfig parameterizes lease acquisition. Owner is a human-readable
// holder identity (host:pid is a good choice); TTL bounds how long a crashed
// holder blocks others (default 5m); Now is the clock (default time.Now),
// injectable so expiry is testable.
type LeaseConfig struct {
	Owner string
	TTL   time.Duration
	Now   func() time.Time
}

// Lease is a held cross-process writer lease: an object on the remote root
// recording owner, a random token, and an expiry. Minimal object APIs have
// no compare-and-swap, so acquisition is write-then-read-back: a writer puts
// its record, reads the key again, and owns the lease only if its token
// survived. Two writers racing within one round-trip can both lose (and
// retry); they can only both "win" if the store reorders a read after an
// acknowledged overlapping write, which the bundled stores never do —
// against weaker stores the lease is best-effort mutual exclusion, which is
// the strongest guarantee GET/PUT/LIST offers.
type Lease struct {
	store ObjectStore
	key   string
	owner string
	token string
	ttl   time.Duration
	now   func() time.Time
}

// leaseRecord is the wire form: three "k v" lines (owner, token, expires —
// unix nanoseconds). See docs/FORMATS.md. It parses back to its fields when
// owner and token are recordable.
func leaseRecord(owner, token string, expires int64) []byte {
	return []byte(fmt.Sprintf("owner %s\ntoken %s\nexpires %d\n", owner, token, expires))
}

// recordable reports whether a lease record's field reads back as written:
// it has no line break and no white space at either end.
func recordable(field string) bool {
	return !strings.ContainsAny(field, "\r\n") && strings.TrimSpace(field) == field
}

// parseLease reads a lease record's fields, leaving zero any it cannot find.
func parseLease(data []byte) (owner, token string, expires int64) {
	for _, ln := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(strings.TrimSpace(ln), " ")
		if !ok {
			continue
		}
		switch k {
		case "owner":
			owner = v
		case "token":
			token = v
		case "expires":
			expires, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return
}

// AcquireLease acquires the writer lease at key, failing with ErrLeaseHeld
// while another holder's lease is live (unexpired). A crashed holder's lease
// is taken over once its TTL passes. An owner the record cannot carry fails
// with ErrBadLeaseOwner before anything is read or written.
func AcquireLease(st ObjectStore, key string, cfg LeaseConfig) (*Lease, error) {
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Owner == "" {
		cfg.Owner = "anonymous"
	}
	if !recordable(cfg.Owner) {
		return nil, fmt.Errorf("%w: %q", ErrBadLeaseOwner, cfg.Owner)
	}
	now := cfg.Now()
	if data, err := st.Get(key); err == nil {
		owner, _, expires := parseLease(data)
		if expires > now.UnixNano() {
			return nil, fmt.Errorf("%w: %s by %q until %s", ErrLeaseHeld, key, owner, time.Unix(0, expires).UTC().Format(time.RFC3339))
		}
	} else if !errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("remote: acquire lease %s: %w", key, err)
	}

	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("remote: acquire lease %s: %w", key, err)
	}
	token := hex.EncodeToString(raw[:])
	if err := st.Put(key, leaseRecord(cfg.Owner, token, now.Add(cfg.TTL).UnixNano())); err != nil {
		return nil, fmt.Errorf("remote: acquire lease %s: %w", key, err)
	}
	// Read back: if another writer's record replaced ours in the race
	// window, they won.
	data, err := st.Get(key)
	if err != nil {
		return nil, fmt.Errorf("remote: acquire lease %s: %w", key, err)
	}
	if owner, got, _ := parseLease(data); got != token {
		return nil, fmt.Errorf("%w: %s lost acquisition race to %q", ErrLeaseHeld, key, owner)
	}
	return &Lease{store: st, key: key, owner: cfg.Owner, token: token, ttl: cfg.TTL, now: cfg.Now}, nil
}

// Renew extends the held lease by its TTL. It fails with ErrLeaseHeld if the
// lease was lost (expired and taken over) since acquisition.
func (l *Lease) Renew() error {
	if err := l.verify(); err != nil {
		return err
	}
	if err := l.store.Put(l.key, leaseRecord(l.owner, l.token, l.now().Add(l.ttl).UnixNano())); err != nil {
		return fmt.Errorf("remote: renew lease %s: %w", l.key, err)
	}
	return nil
}

// Release gives the lease up. Releasing a lease that was already lost is not
// an error (the new holder's record is left untouched).
func (l *Lease) Release() error {
	if err := l.verify(); err != nil {
		if errors.Is(err, ErrLeaseHeld) || errors.Is(err, ErrNotFound) {
			return nil
		}
		return err
	}
	if err := l.store.Delete(l.key); err != nil {
		return fmt.Errorf("remote: release lease %s: %w", l.key, err)
	}
	return nil
}

// verify checks the remote record still carries our token.
func (l *Lease) verify() error {
	data, err := l.store.Get(l.key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return fmt.Errorf("remote: lease %s: %w", l.key, ErrNotFound)
		}
		return fmt.Errorf("remote: lease %s: %w", l.key, err)
	}
	if owner, token, _ := parseLease(data); token != l.token {
		return fmt.Errorf("%w: %s taken over by %q", ErrLeaseHeld, l.key, owner)
	}
	return nil
}
