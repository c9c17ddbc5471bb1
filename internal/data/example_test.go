package data_test

import (
	"fmt"

	"floatfl/internal/data"
)

// Generating a non-IID federation: a small Dirichlet concentration puts
// most of each client's shard in one class (a uniform mix of femnist's 12
// would put 8 % in each).
func ExampleGenerate() {
	fed, err := data.Generate("femnist", data.GenerateConfig{
		Clients: 4, Alpha: 0.05, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("clients: %d\n", len(fed.Train))
	fmt.Printf("feature dim: %d, classes: %d\n", fed.Profile.Dim, fed.Profile.Classes)
	for i, shard := range fed.Train {
		top := 0
		for _, n := range data.LabelHistogram(shard, fed.Profile.Classes) {
			top = max(top, n)
		}
		fmt.Printf("client %d: %d samples, %.0f%% in its top class\n",
			i, len(shard), 100*float64(top)/float64(len(shard)))
	}
	// Output:
	// clients: 4
	// feature dim: 32, classes: 12
	// client 0: 143 samples, 56% in its top class
	// client 1: 24 samples, 100% in its top class
	// client 2: 120 samples, 100% in its top class
	// client 3: 81 samples, 86% in its top class
}
