package core

import (
	"errors"
	"fmt"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Typed refusal sentinels. Submit (and the RMA surface) refuse work for a
// small set of reasons a caller may want to branch on — the engine is gone,
// the payload cannot fit one frame, or admission control shed the packet.
// Each is an errors.Is target; the admission refusals additionally carry a
// *ThrottleError with the tenant and a retry-after hint.
var (
	// ErrClosed reports an operation on a closed engine.
	ErrClosed = errors.New("core: engine closed")

	// ErrTooLarge reports a packet payload or RMA span over
	// packet.MaxPayload: no frame could carry it. Like every refusal it
	// consumes no seq and no admission charge.
	ErrTooLarge = errors.New("core: payload exceeds the one-frame wire limit")

	// ErrThrottled reports a tenant over its token-bucket admission rate.
	ErrThrottled = errors.New("core: tenant throttled")

	// ErrQuotaExceeded reports a tenant over its backlog quota.
	ErrQuotaExceeded = errors.New("core: tenant backlog quota exceeded")
)

// ThrottleError is the admission-control refusal: which tenant was shed,
// why (it unwraps to ErrThrottled or ErrQuotaExceeded), and when retrying
// could succeed. RetryAfter is a hint, not a reservation — the bucket
// refills at the quota rate regardless of who asks.
type ThrottleError struct {
	Tenant packet.TenantID
	// RetryAfter is how long from the refusal until the admission check
	// could pass again: the token-bucket deficit for rate refusals, zero
	// for backlog-quota refusals (those clear when the backlog drains,
	// which no clock predicts).
	RetryAfter simnet.Duration
	kind       error
}

// Error renders the refusal.
func (t *ThrottleError) Error() string {
	if t.RetryAfter > 0 {
		return fmt.Sprintf("%v (tenant %d, retry after %v)", t.kind, t.Tenant, t.RetryAfter)
	}
	return fmt.Sprintf("%v (tenant %d)", t.kind, t.Tenant)
}

// checkSize refuses a payload or RMA span of n bytes that no frame could
// carry.
func checkSize(n int) error {
	if n > packet.MaxPayload {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrTooLarge, n, packet.MaxPayload)
	}
	return nil
}

// Unwrap exposes the sentinel (ErrThrottled or ErrQuotaExceeded) to
// errors.Is.
func (t *ThrottleError) Unwrap() error { return t.kind }
