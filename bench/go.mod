module stamp/bench

go 1.24

require stamp v0.0.0

replace stamp => ../
