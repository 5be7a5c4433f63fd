package types

import (
	"errors"
	"fmt"
)

// Sentinel errors shared across the RStore layers. Callers should match them
// with errors.Is; wrapped forms carry the offending key/version for context.
var (
	// ErrNotFound reports that a requested record, version, chunk, or KVS
	// key does not exist.
	ErrNotFound = errors.New("rstore: not found")

	// ErrVersionUnknown reports that a version id is not present in the
	// version graph.
	ErrVersionUnknown = errors.New("rstore: unknown version")

	// ErrInconsistentDelta reports a delta whose positive and negative
	// sets intersect (§3.2 requires ∆⁺ ∩ ∆⁻ = ∅).
	ErrInconsistentDelta = errors.New("rstore: inconsistent delta")

	// ErrCorrupt reports a malformed serialized structure.
	ErrCorrupt = errors.New("rstore: corrupt encoding")

	// ErrClosed reports use of a store after Close.
	ErrClosed = errors.New("rstore: store closed")

	// ErrReadOnly reports a mutation on a read-only store (a read-replica
	// application server).
	ErrReadOnly = errors.New("rstore: store is read-only")

	// ErrPoisoned reports a mutation on a store whose last placement run
	// (a flush or a repartition) failed part-way: what it persisted is
	// consistent, but this process's memory is ahead of it. Reads still
	// answer; reopening the store recovers every acknowledged commit.
	ErrPoisoned = errors.New("rstore: a placement run failed; reopen the store")
)

// KeyNotFoundError wraps ErrNotFound with the missing composite key and the
// version queried.
type KeyNotFoundError struct {
	Key     Key
	Version VersionID
}

func (e *KeyNotFoundError) Error() string {
	return fmt.Sprintf("rstore: key %q not found in version %d", string(e.Key), e.Version)
}

// Unwrap makes errors.Is(err, ErrNotFound) succeed.
func (e *KeyNotFoundError) Unwrap() error { return ErrNotFound }

// VersionUnknownError wraps ErrVersionUnknown with the offending id.
type VersionUnknownError struct {
	Version VersionID
}

func (e *VersionUnknownError) Error() string {
	return fmt.Sprintf("rstore: unknown version %d", e.Version)
}

// Unwrap makes errors.Is(err, ErrVersionUnknown) succeed.
func (e *VersionUnknownError) Unwrap() error { return ErrVersionUnknown }
