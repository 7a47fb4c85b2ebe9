// The eight search entry points bench/decomposed.go calls by name.
// Each is Run with its arguments written as a Spec and nothing else;
// they stand only because a change outside a benchmark PR may not edit
// bench/, and go — with runVariant's switch there — when the next
// benchmark PR moves bench/ to Run (ROADMAP item 1(c)). New code calls
// Run.
package optimizer

import (
	"fmt"

	"autotune/internal/objective"
	"autotune/internal/skeleton"
)

// RSGDE3Controlled is Run with "rs-gde3".
func RSGDE3Controlled(space skeleton.Space, eval objective.Evaluator, opt Options, ctrl Control) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "rs-gde3", Config: StrategyConfig{Options: opt}}, ctrl)
}

// GDE3Controlled is Run with "gde3".
func GDE3Controlled(space skeleton.Space, eval objective.Evaluator, opt Options, ctrl Control) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "gde3", Config: StrategyConfig{Options: opt}}, ctrl)
}

// NSGA2Controlled is Run with "nsga2".
func NSGA2Controlled(space skeleton.Space, eval objective.Evaluator, opt NSGA2Options, ctrl Control) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "nsga2", Config: StrategyConfig{NSGA2: opt}}, ctrl)
}

// MOTPEControlled is Run with "motpe".
func MOTPEControlled(space skeleton.Space, eval objective.Evaluator, opt Options, ctrl Control) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "motpe", Config: StrategyConfig{Options: opt}}, ctrl)
}

// RSGDE3IslandsControlled is Run with "rs-gde3" and Spec.Islands set.
func RSGDE3IslandsControlled(space skeleton.Space, eval objective.Evaluator, opt Options, iopt IslandOptions, ctrl Control) (*Result, error) {
	return Run(space, eval, Spec{Strategy: "rs-gde3", Config: StrategyConfig{Options: opt}, Islands: &iopt}, ctrl)
}

// RandomControlled is Run with "random"; unlike a Spec, whose zero
// budget means the default, it demands a positive one.
func RandomControlled(space skeleton.Space, eval objective.Evaluator, budget int, seed int64, ctrl Control) (*Result, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("optimizer: random search needs a positive budget")
	}
	return Run(space, eval, Spec{Strategy: "random", Config: StrategyConfig{Options: Options{Seed: seed}, RandomBudget: budget}}, ctrl)
}

// GridSearchControlled is Run with "grid"; it demands a positive
// budget like RandomControlled.
func GridSearchControlled(space skeleton.Space, eval objective.Evaluator, budget int, ctrl Control) (*Result, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("optimizer: grid search needs a positive budget")
	}
	return Run(space, eval, Spec{Strategy: "grid", Config: StrategyConfig{RandomBudget: budget}}, ctrl)
}

// RaceResult is the Result of RaceControlled; its Standings are the
// Result's.
type RaceResult struct {
	*Result
}

// RaceControlled is Run with Spec.Race set.
func RaceControlled(space skeleton.Space, eval objective.Evaluator, cfg StrategyConfig, ropt RaceOptions, ctrl Control) (*RaceResult, error) {
	res, err := Run(space, eval, Spec{Config: cfg, Race: &ropt}, ctrl)
	if err != nil {
		return nil, err
	}
	return &RaceResult{res}, nil
}
