package exp

import "fmt"

// RetryShape runs a wall-clock shape assertion up to attempts times and
// succeeds on the first clean run. Wall-clock experiments (X2, X4)
// measure real sockets on shared CI machines, where a noisy neighbor can
// blow a single timing comparison without anything being wrong with the
// code under test; retrying the *whole measurement* (never just the
// assertion) keeps the shape tests meaningful and the lane deflaked. The
// returned error is the last attempt's, annotated with the attempt count
// so a flaky-turned-real failure is recognizable in CI logs.
func RetryShape(attempts int, attempt func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if err = attempt(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("exp: failed on all %d attempts, last: %w", attempts, err)
}
