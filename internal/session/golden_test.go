package session

import (
	"testing"
)

// Golden screen tests: exact rendered text for the screens that the paper
// prints in full, so any layout regression is caught character for
// character.

const goldenMainMenu = `+----------------------------------------------------------------------------+
|                          SCHEMA INTEGRATION TOOL                           |
|                               < Main Menu >                                |
+----------------------------------------------------------------------------+
| 1. Define the schemas to be integrated                                     |
| 2. Define equivalences among attributes of object classes                  |
| 3. Specify assertions between object classes                               |
| 4. Define equivalences among attributes of relationship sets               |
| 5. Specify assertions between relationship sets                            |
| 6. Integrate schemas and view results                                      |
| 7. Suggest attribute equivalences (dictionary + theory)                    |
|                                                                            |
| e. Exit                                                                    |
|                                                                            |
| Enter choice =>                                                            |
+----------------------------------------------------------------------------+
`

func TestGoldenMainMenu(t *testing.T) {
	if got := mainMenuScreen().Text(); got != goldenMainMenu {
		t.Errorf("main menu drifted:\n%s\nwant:\n%s", got, goldenMainMenu)
	}
}

const goldenObjectClassScreen = `+----------------------------------------------------------------------------+
|                             INTEGRATED SCHEMA                              |
|                          < Object Class Screen >                           |
+----------------------------------------------------------------------------+
| Entities(2)                                                                |
| E_Department                                                               |
| D_Stud_Facu                                                                |
|                                                                            |
| Categories(3)                                                              |
| Student                                                                    |
| Grad_student                                                               |
| Faculty                                                                    |
|                                                                            |
| Relationships(2)                                                           |
| E_Stud_Majo                                                                |
| Works                                                                      |
|                                                                            |
| Type object class name then <A>ttributes, <C>ategories, <E>ntities, <R>... |
+----------------------------------------------------------------------------+
`

func TestGoldenObjectClassScreen(t *testing.T) {
	ws := paperWorkspace(t)
	res, err := ws.Integrate("sc1", "sc2", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := objectClassScreen(res.Schema).Text(); got != goldenObjectClassScreen {
		t.Errorf("object class screen drifted:\n%s\nwant:\n%s", got, goldenObjectClassScreen)
	}
}
