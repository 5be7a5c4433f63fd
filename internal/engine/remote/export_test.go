package remote

// Policy is the client's pool, retry, timeout and probe policy, for the
// tests that tune it.
type Policy = policy

// DefaultPolicy returns the policy Dial gives every client.
func DefaultPolicy() Policy { return defaultPolicy }

// DialPolicy is Dial on policy p.
func DialPolicy(addr string, p Policy) (*Client, error) { return newClient(addr, p) }

// ErrProbation is the cause of an operation's fast fail while the breaker
// is open.
var ErrProbation = errProbation
