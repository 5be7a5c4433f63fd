package kvstore

import "time"

// walltime is the package's single wall-clock seam. Every timestamp that
// feeds LWW ordering or envelope stamps is taken
// through it so tests (and future hybrid-clock work) can substitute a
// deterministic clock in one place; rstore-vet's clockseam analyzer rejects
// direct time.Now calls elsewhere in the package.
var walltime = time.Now
