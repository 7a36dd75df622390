module allforone/bench

go 1.24

require allforone v0.0.0

replace allforone => ../
