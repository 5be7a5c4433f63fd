// Package disklog is what is left of a second durable engine, a segment
// log: lsm is the one durable engine. Open and Options stay only because
// benchmark/stack.go names them for its --backend flag. Open refuses, so
// that flag value fails when the benchmark boots its stack. ROADMAP item
// 29 deletes the flag and this package with it.
package disklog

import (
	"errors"

	"rstore/internal/engine"
)

// Options configured the segment log. It has no fields left.
type Options struct{}

// Open refuses, naming the engine to use instead, and creates nothing
// under dir.
func Open(dir string, _ Options) (engine.Backend, error) {
	return nil, errors.New("disklog: the segment-log engine was removed; lsm is the durable engine (ROADMAP item 29 drops this name)")
}
